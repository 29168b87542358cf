package rpcfed

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"sync"
	"time"

	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

// The binary wire protocol for rpcfed. A client that wants binary framing
// writes the 4-byte preamble below right after connecting; the participant
// sniffs it and picks the matching server codec, so gob and binary clients
// coexist on one listener. Every message (either direction) is one frame:
//
//	u32 frameLen                  (bytes after this field, little-endian)
//	u8  version                   (1)
//	u8  mode                      (wire.Mode of the tensor payload)
//	u8  methodLen | method bytes  (rpc.Request/Response.ServiceMethod)
//	u64 seq                       (rpc sequence number)
//	u16 errLen | err bytes        (empty on requests and successes)
//	u8  bodyKind                  (constants below)
//	body bytes                    (layout per kind; tensors via wire pkg)
//
// Responses reuse the request's mode (the server echoes what each client
// asked for), so mixed-mode clients against one participant stay correct.
// Encode/decode time excludes network I/O: frames are built in and parsed
// from reusable in-memory buffers on both sides.

// wirePreamble is the connection-level magic selecting the binary codec.
const wirePreamble = "FWP1"

// wireVersion is the frame format version byte.
const wireVersion = 1

// maxFrameBytes bounds a frame a peer can make us buffer (a corrupt or
// hostile length prefix must not demand gigabytes).
const maxFrameBytes = 256 << 20

// Body kinds.
const (
	bodyNone         = 0 // error responses and discarded bodies
	bodyGob          = 1 // gob blob fallback (Hello handshake)
	bodyTrainRequest = 2
	bodyTrainReply   = 3
	// 4 and 5 carried the retired FedAvg request/reply; they stay reserved
	// and decode as unknown kinds.
)

// headerTagSpan is the optional header-extension tag carrying a 24-byte
// trace span context (wire.SpanContext) between the error string and
// bodyKind. Extension tags have the high bit set, so a tag byte can never
// be mistaken for a body kind. Unknown tags are a parse error (their length
// is unknown), but untraced frames carry no tags at all and stay
// byte-identical to the original protocol — so v1 peers interoperate as
// long as tracing is off, and gob-mode clients are unaffected either way
// because gob framing never takes this path.
const headerTagSpan = 0x80

// countingConn wraps a net.Conn, feeding raw byte counts both ways into
// wire metrics counters (nil-safe, so an unobserved run costs two atomic
// adds per syscall).
type countingConn struct {
	net.Conn
	met *telemetry.WireMetrics
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.met.BytesReceived.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.met.BytesSent.Add(int64(n))
	return n, err
}

// sniffedConn replays bytes buffered while peeking at the preamble, then
// continues on the underlying connection.
type sniffedConn struct {
	r io.Reader
	net.Conn
}

func (c sniffedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// --- frame primitives -------------------------------------------------

// appendFrameHeader emits everything up to and including bodyKind; the
// caller appends the body and then patches the length prefix. A valid span
// context is carried as a header-extension tag; an invalid one adds no
// bytes, keeping untraced frames identical to the tag-free format.
func appendFrameHeader(dst []byte, mode wire.Mode, method string, seq uint64, errStr string, span wire.SpanContext, kind byte) ([]byte, error) {
	if len(method) > 255 {
		return nil, fmt.Errorf("rpcfed: method name %q too long", method)
	}
	if len(errStr) > 65535 {
		errStr = errStr[:65535]
	}
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched by finishFrame
	dst = append(dst, wireVersion, byte(mode), byte(len(method)))
	dst = append(dst, method...)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(errStr)))
	dst = append(dst, errStr...)
	if span.Valid() {
		dst = append(dst, headerTagSpan)
		dst = wire.AppendSpanContext(dst, span)
	}
	dst = append(dst, kind)
	return dst, nil
}

// finishFrame patches the length prefix of the frame starting at `start`.
func finishFrame(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// frameHeader is the parsed envelope of one incoming frame.
type frameHeader struct {
	mode   wire.Mode
	method string
	seq    uint64
	errStr string
	// span is the trace context from the headerTagSpan extension (zero
	// when the frame carried none).
	span wire.SpanContext
	kind byte
}

// readFrame reads one length-prefixed frame into buf (grown as needed) and
// returns the frame payload. Raw network reads happen here, so codec
// decode timers can exclude them.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("rpcfed: frame of %d bytes exceeds limit %d", n, maxFrameBytes)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("rpcfed: short frame: %w", err)
	}
	return buf, nil
}

// parseFrameHeader consumes the envelope from r.
func parseFrameHeader(r *wire.Reader) (frameHeader, error) {
	var h frameHeader
	ver, err := r.U8()
	if err != nil {
		return h, err
	}
	if ver != wireVersion {
		return h, fmt.Errorf("rpcfed: frame version %d, want %d", ver, wireVersion)
	}
	modeB, err := r.U8()
	if err != nil {
		return h, err
	}
	h.mode = wire.Mode(modeB)
	if !h.mode.Valid() {
		return h, fmt.Errorf("rpcfed: invalid wire mode %d", modeB)
	}
	mlen, err := r.U8()
	if err != nil {
		return h, err
	}
	mb, err := r.Bytes(int(mlen))
	if err != nil {
		return h, err
	}
	h.method = string(mb)
	if h.seq, err = r.U64(); err != nil {
		return h, err
	}
	elen, err := r.U16()
	if err != nil {
		return h, err
	}
	eb, err := r.Bytes(int(elen))
	if err != nil {
		return h, err
	}
	h.errStr = string(eb)
	b, err := r.U8()
	if err != nil {
		return h, err
	}
	for b&0x80 != 0 {
		switch b {
		case headerTagSpan:
			if h.span, err = wire.DecodeSpanContext(r); err != nil {
				return h, err
			}
		default:
			return h, fmt.Errorf("rpcfed: unknown frame header tag %#x", b)
		}
		if b, err = r.U8(); err != nil {
			return h, err
		}
	}
	h.kind = b
	return h, nil
}

// --- typed body layouts -----------------------------------------------

// appendGateInts emits a gate vector as u32 count + u16 per entry
// (candidate indices are tiny).
func appendGateInts(dst []byte, g []int) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g)))
	for _, v := range g {
		if v < 0 || v > 65535 {
			return nil, fmt.Errorf("rpcfed: gate index %d out of u16 range", v)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
	}
	return dst, nil
}

func decodeGateInts(r *wire.Reader, into []int) ([]int, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int64(n)*2 > int64(r.Len()) {
		return nil, fmt.Errorf("rpcfed: gate count %d exceeds frame", n)
	}
	if cap(into) >= int(n) {
		into = into[:n]
	} else {
		into = make([]int, n)
	}
	for i := range into {
		v, err := r.U16()
		if err != nil {
			return nil, err
		}
		into[i] = int(v)
	}
	return into, nil
}

func appendI32(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(v)))
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendParamIDs / decodeParamIDs carry the top-k transport's supernet
// parameter indices (u32 count + u32 per entry).
func appendParamIDs(dst []byte, ids []int) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("rpcfed: negative param id %d", id)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst, nil
}

func decodeParamIDs(r *wire.Reader, into []int) ([]int, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int64(n)*4 > int64(r.Len()) {
		return nil, fmt.Errorf("rpcfed: param id count %d exceeds frame", n)
	}
	if cap(into) >= int(n) {
		into = into[:n]
	} else {
		into = make([]int, n)
	}
	for i := range into {
		v, err := r.U32()
		if err != nil {
			return nil, err
		}
		into[i] = int(v)
	}
	return into, nil
}

// appendPacked / decodePacked carry an opaque pre-encoded wire tensor group
// (u32 length + bytes). Decoding COPIES the bytes: the frame buffer is
// reused for the next frame while the service (or the reply consumer) still
// holds the payload.
func appendPacked(dst, packed []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(packed)))
	return append(dst, packed...)
}

func decodePacked(r *wire.Reader, into []byte) ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return nil, err
	}
	return append(into[:0], b...), nil
}

func appendTrainRequest(dst []byte, m wire.Mode, req *TrainRequest) ([]byte, error) {
	dst = appendI32(dst, req.Round)
	dst = appendI32(dst, req.BatchSize)
	var err error
	if dst, err = appendGateInts(dst, req.Normal); err != nil {
		return nil, err
	}
	if dst, err = appendGateInts(dst, req.Reduce); err != nil {
		return nil, err
	}
	if m == wire.TopK {
		if dst, err = appendParamIDs(dst, req.ParamIDs); err != nil {
			return nil, err
		}
		dst = appendF64(dst, req.TopKRatio)
		dst = appendPacked(dst, req.Packed)
	}
	return wire.AppendGroup(dst, m, req.Weights), nil
}

func decodeTrainRequest(r *wire.Reader, m wire.Mode, req *TrainRequest) error {
	var err error
	if req.Round, err = r.I32(); err != nil {
		return err
	}
	if req.BatchSize, err = r.I32(); err != nil {
		return err
	}
	if req.Normal, err = decodeGateInts(r, req.Normal); err != nil {
		return err
	}
	if req.Reduce, err = decodeGateInts(r, req.Reduce); err != nil {
		return err
	}
	if m == wire.TopK {
		if req.ParamIDs, err = decodeParamIDs(r, req.ParamIDs); err != nil {
			return err
		}
		if req.TopKRatio, err = r.F64(); err != nil {
			return err
		}
		if req.Packed, err = decodePacked(r, req.Packed); err != nil {
			return err
		}
	}
	req.Weights, err = wire.DecodeGroupInto(r, req.Weights)
	return err
}

func appendTrainReply(dst []byte, m wire.Mode, rep *TrainReply) ([]byte, error) {
	dst = appendI32(dst, rep.Round)
	dst = appendI32(dst, rep.ParticipantID)
	dst = appendF64(dst, rep.Reward)
	dst = appendF64(dst, rep.Loss)
	if m == wire.TopK {
		dst = appendPacked(dst, rep.Packed)
	}
	return wire.AppendGroup(dst, m, rep.Grads), nil
}

func decodeTrainReply(r *wire.Reader, m wire.Mode, rep *TrainReply) error {
	var err error
	if rep.Round, err = r.I32(); err != nil {
		return err
	}
	if rep.ParticipantID, err = r.I32(); err != nil {
		return err
	}
	if rep.Reward, err = r.F64(); err != nil {
		return err
	}
	if rep.Loss, err = r.F64(); err != nil {
		return err
	}
	if m == wire.TopK {
		if rep.Packed, err = decodePacked(r, rep.Packed); err != nil {
			return err
		}
	}
	rep.Grads, err = wire.DecodeGroupInto(r, rep.Grads)
	return err
}

// appendBody dispatches on the concrete message type; unknown types fall
// back to a gob blob so auxiliary messages (the Hello handshake) need no
// bespoke layout. Weight-bearing messages always get the binary path.
func appendBody(dst []byte, m wire.Mode, body any) ([]byte, byte, error) {
	switch b := body.(type) {
	case nil:
		return dst, bodyNone, nil
	case *TrainRequest:
		out, err := appendTrainRequest(dst, m, b)
		return out, bodyTrainRequest, err
	case *TrainReply:
		out, err := appendTrainReply(dst, m, b)
		return out, bodyTrainReply, err
	default:
		var blob bytes.Buffer
		if err := gob.NewEncoder(&blob).Encode(body); err != nil {
			return nil, 0, fmt.Errorf("rpcfed: gob fallback encode %T: %w", body, err)
		}
		return append(dst, blob.Bytes()...), bodyGob, nil
	}
}

// decodeBody decodes the remainder of a frame into the typed destination.
// A nil dst discards the body (net/rpc does this on errors). The frame's
// wire mode selects layout variants (the top-k transport extends the train
// bodies).
func decodeBody(r *wire.Reader, kind byte, m wire.Mode, dst any) error {
	if dst == nil {
		return nil
	}
	switch kind {
	case bodyNone:
		return nil
	case bodyGob:
		blob, err := r.Bytes(r.Len())
		if err != nil {
			return err
		}
		return gob.NewDecoder(bytes.NewReader(blob)).Decode(dst)
	case bodyTrainRequest:
		b, ok := dst.(*TrainRequest)
		if !ok {
			return fmt.Errorf("rpcfed: TrainRequest frame decoded into %T", dst)
		}
		return decodeTrainRequest(r, m, b)
	case bodyTrainReply:
		b, ok := dst.(*TrainReply)
		if !ok {
			return fmt.Errorf("rpcfed: TrainReply frame decoded into %T", dst)
		}
		return decodeTrainReply(r, m, b)
	default:
		return fmt.Errorf("rpcfed: unknown body kind %d", kind)
	}
}

// --- client codec -----------------------------------------------------

// binaryClientCodec implements rpc.ClientCodec over the binary frame
// protocol. net/rpc serializes WriteRequest calls and runs the two read
// methods from one receive goroutine, so the encode and decode state are
// lock-free as long as they stay separate.
type binaryClientCodec struct {
	conn io.ReadWriteCloser
	mode wire.Mode
	met  *telemetry.WireMetrics

	encBuf []byte

	decBuf  []byte
	pending frameHeader
	body    *wire.Reader
}

// newBinaryClientCodec writes the preamble and returns the codec.
func newBinaryClientCodec(conn io.ReadWriteCloser, mode wire.Mode, met *telemetry.WireMetrics) (*binaryClientCodec, error) {
	if _, err := io.WriteString(conn, wirePreamble); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpcfed: write preamble: %w", err)
	}
	return &binaryClientCodec{conn: conn, mode: mode, met: met}, nil
}

// requestSpan lifts the trace context out of the typed request bodies the
// server dispatches, so the binary framing can carry it in the header
// (the typed body encoders deliberately skip it).
func requestSpan(body any) wire.SpanContext {
	if b, ok := body.(*TrainRequest); ok {
		return b.Span
	}
	return wire.SpanContext{}
}

func (c *binaryClientCodec) WriteRequest(req *rpc.Request, body any) error {
	t0 := time.Now()
	buf, err := appendFrameHeader(c.encBuf[:0], c.mode, req.ServiceMethod, req.Seq, "", requestSpan(body), bodyNone)
	if err != nil {
		return err
	}
	kindAt := len(buf) - 1
	buf, kind, err := appendBody(buf, c.mode, body)
	if err != nil {
		return err
	}
	buf[kindAt] = kind
	buf = finishFrame(buf, 0)
	c.encBuf = buf
	enc := time.Since(t0)
	c.met.EncodeNs.Add(enc.Nanoseconds())
	c.met.EncodeSeconds.Observe(enc.Seconds())
	c.met.FrameBytes.Observe(float64(len(buf)))
	if _, err := c.conn.Write(buf); err != nil {
		return err
	}
	c.met.MessagesSent.Inc()
	return nil
}

func (c *binaryClientCodec) ReadResponseHeader(resp *rpc.Response) error {
	frame, err := readFrame(c.conn, c.decBuf)
	if err != nil {
		return err
	}
	c.decBuf = frame
	t0 := time.Now()
	r := wire.NewReader(frame)
	h, err := parseFrameHeader(r)
	if err != nil {
		return err
	}
	c.pending, c.body = h, r
	resp.ServiceMethod = h.method
	resp.Seq = h.seq
	resp.Error = h.errStr
	c.met.DecodeNs.Add(time.Since(t0).Nanoseconds())
	c.met.FrameBytes.Observe(float64(len(frame) + 4))
	c.met.MessagesReceived.Inc()
	return nil
}

func (c *binaryClientCodec) ReadResponseBody(body any) error {
	t0 := time.Now()
	err := decodeBody(c.body, c.pending.kind, c.pending.mode, body)
	dec := time.Since(t0)
	c.met.DecodeNs.Add(dec.Nanoseconds())
	c.met.DecodeSeconds.Observe(dec.Seconds())
	return err
}

func (c *binaryClientCodec) Close() error { return c.conn.Close() }

// --- server codec -----------------------------------------------------

// requestEcho is what a response must echo from its request: the wire mode
// the client asked for and the trace context its worker-side spans (and the
// response frame header) parent under.
type requestEcho struct {
	mode wire.Mode
	span wire.SpanContext
}

// binaryServerCodec implements rpc.ServerCodec. The read methods run from
// the server's single read loop; WriteResponse runs from service
// goroutines (serialized by net/rpc's per-connection sending lock, but
// concurrent with reads), so the seq→echo map needs its own lock.
type binaryServerCodec struct {
	conn   io.ReadWriteCloser
	met    *telemetry.WireMetrics
	tracer *telemetry.Tracer

	decBuf  []byte
	pending frameHeader
	body    *wire.Reader

	mu        sync.Mutex
	encBuf    []byte
	echoBySeq map[uint64]requestEcho
}

func newBinaryServerCodec(conn io.ReadWriteCloser, met *telemetry.WireMetrics, tracer *telemetry.Tracer) *binaryServerCodec {
	return &binaryServerCodec{conn: conn, met: met, tracer: tracer,
		echoBySeq: make(map[uint64]requestEcho)}
}

func (c *binaryServerCodec) ReadRequestHeader(req *rpc.Request) error {
	frame, err := readFrame(c.conn, c.decBuf)
	if err != nil {
		return err
	}
	c.decBuf = frame
	t0 := time.Now()
	r := wire.NewReader(frame)
	h, err := parseFrameHeader(r)
	if err != nil {
		return err
	}
	c.pending, c.body = h, r
	req.ServiceMethod = h.method
	req.Seq = h.seq
	c.mu.Lock()
	c.echoBySeq[h.seq] = requestEcho{mode: h.mode, span: h.span}
	c.mu.Unlock()
	c.met.DecodeNs.Add(time.Since(t0).Nanoseconds())
	c.met.FrameBytes.Observe(float64(len(frame) + 4))
	c.met.MessagesReceived.Inc()
	return nil
}

func (c *binaryServerCodec) ReadRequestBody(body any) error {
	t0 := time.Now()
	err := decodeBody(c.body, c.pending.kind, c.pending.mode, body)
	dec := time.Since(t0)
	c.met.DecodeNs.Add(dec.Nanoseconds())
	c.met.DecodeSeconds.Observe(dec.Seconds())
	if err != nil {
		return err
	}
	// The binary body layouts skip the span; restore it from the frame
	// header so the service sees the same request a gob client would send,
	// and record the decode as a worker-side span under the round.
	if c.pending.span.Valid() {
		if b, ok := body.(*TrainRequest); ok {
			b.Span = c.pending.span
		}
		c.tracer.WorkerSpan(telemetry.EventWorkerDecode, c.pending.span,
			int64(len(c.decBuf)+4), dec.Seconds())
	}
	return nil
}

func (c *binaryServerCodec) WriteResponse(resp *rpc.Response, body any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	echo, ok := c.echoBySeq[resp.Seq]
	if !ok {
		echo = requestEcho{mode: wire.FP64}
	}
	delete(c.echoBySeq, resp.Seq)

	t0 := time.Now()
	buf, err := appendFrameHeader(c.encBuf[:0], echo.mode, resp.ServiceMethod, resp.Seq, resp.Error, echo.span, bodyNone)
	if err != nil {
		return err
	}
	kindAt := len(buf) - 1
	if resp.Error == "" {
		var kind byte
		buf, kind, err = appendBody(buf, echo.mode, body)
		if err != nil {
			return err
		}
		buf[kindAt] = kind
	}
	buf = finishFrame(buf, 0)
	c.encBuf = buf
	enc := time.Since(t0)
	c.met.EncodeNs.Add(enc.Nanoseconds())
	c.met.EncodeSeconds.Observe(enc.Seconds())
	c.met.FrameBytes.Observe(float64(len(buf)))
	if echo.span.Valid() {
		c.tracer.WorkerSpan(telemetry.EventWorkerEncode, echo.span,
			int64(len(buf)), enc.Seconds())
	}
	if _, err := c.conn.Write(buf); err != nil {
		return err
	}
	c.met.MessagesSent.Inc()
	return nil
}

func (c *binaryServerCodec) Close() error { return c.conn.Close() }

// --- instrumented gob client codec (baseline) -------------------------

// gobClientCodec mirrors net/rpc's stock gob codec byte-for-byte on the
// wire but routes through the wire metrics, so the gob baseline reports
// comparable byte counts and serialization time to the binary codec. Decode
// time approximates: gob streams straight off the buffered connection, so
// the timer includes buffered reads (unlike the binary codec, which fully
// separates I/O from parsing).
type gobClientCodec struct {
	rwc    io.ReadWriteCloser
	dec    *gob.Decoder
	enc    *gob.Encoder
	encBuf *bufio.Writer
	met    *telemetry.WireMetrics
}

func newGobClientCodec(conn io.ReadWriteCloser, met *telemetry.WireMetrics) *gobClientCodec {
	encBuf := bufio.NewWriter(conn)
	return &gobClientCodec{
		rwc:    conn,
		dec:    gob.NewDecoder(bufio.NewReader(conn)),
		enc:    gob.NewEncoder(encBuf),
		encBuf: encBuf,
		met:    met,
	}
}

func (c *gobClientCodec) WriteRequest(req *rpc.Request, body any) error {
	t0 := time.Now()
	if err := c.enc.Encode(req); err != nil {
		return err
	}
	if err := c.enc.Encode(body); err != nil {
		return err
	}
	err := c.encBuf.Flush()
	enc := time.Since(t0)
	c.met.EncodeNs.Add(enc.Nanoseconds())
	c.met.EncodeSeconds.Observe(enc.Seconds())
	if err == nil {
		c.met.MessagesSent.Inc()
	}
	return err
}

func (c *gobClientCodec) ReadResponseHeader(resp *rpc.Response) error {
	if err := c.dec.Decode(resp); err != nil {
		return err
	}
	c.met.MessagesReceived.Inc()
	return nil
}

func (c *gobClientCodec) ReadResponseBody(body any) error {
	t0 := time.Now()
	err := c.dec.Decode(body)
	dec := time.Since(t0)
	c.met.DecodeNs.Add(dec.Nanoseconds())
	c.met.DecodeSeconds.Observe(dec.Seconds())
	return err
}

func (c *gobClientCodec) Close() error { return c.rwc.Close() }

// --- dialing ----------------------------------------------------------

// dialParticipant connects to addr with bounded-backoff retries (a
// participant racing the server to its listener is a normal startup
// interleaving, not an error) and returns an rpc.Client speaking the
// requested wire mode. attempts <= 1 means a single try.
func dialParticipant(addr string, mode wire.Mode, met *telemetry.WireMetrics,
	attempts int, backoff time.Duration) (*rpc.Client, error) {

	if attempts < 1 {
		attempts = 1
	}
	var conn net.Conn
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			time.Sleep(backoff)
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("rpcfed: dial %s (%d attempts): %w", addr, attempts, err)
	}
	cc := &countingConn{Conn: conn, met: met}
	if mode == wire.Gob {
		return rpc.NewClientWithCodec(newGobClientCodec(cc, met)), nil
	}
	codec, err := newBinaryClientCodec(cc, mode, met)
	if err != nil {
		return nil, err
	}
	return rpc.NewClientWithCodec(codec), nil
}
