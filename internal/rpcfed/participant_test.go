package rpcfed

import (
	"math"
	"math/rand"
	"net/rpc"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/wire"
)

// serveParticipant starts a participant on loopback and returns it with a
// client of the given wire mode; cleanup closes both.
func serveParticipant(t *testing.T, ds *data.Dataset, shard []int, cfg nas.Config, seed int64, mode wire.Mode) (*ParticipantService, *rpc.Client) {
	t.Helper()
	svc, err := NewParticipantService(0, ds, shard, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	ln, done, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, _ := dialTest(t, ln.Addr().String(), mode)
	t.Cleanup(func() {
		client.Close()
		ln.Close()
		<-done
	})
	return svc, client
}

// randomGates draws one candidate per edge for cfg.
func randomGates(rng *rand.Rand, cfg nas.Config) nas.Gates {
	n := nas.NumEdges(cfg.Nodes)
	g := nas.Gates{Normal: make([]int, n), Reduce: make([]int, n)}
	for e := 0; e < n; e++ {
		g.Normal[e] = rng.Intn(len(cfg.Candidates))
		g.Reduce[e] = rng.Intn(len(cfg.Candidates))
	}
	return g
}

func shardOf(n int) []int {
	shard := make([]int, n)
	for i := range shard {
		shard[i] = i
	}
	return shard
}

// flattenValues copies the parameters' values into a fresh weight payload.
func flattenValues(params []*nn.Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Value.Data()...)
	}
	return out
}

// sameBits reports whether two gradient lists are equal to the bit.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// The RPC participant is a transport around the one local step: over an fp64
// connection, Train returns to the bit what fed.Replica.Train computes when
// called directly with the same θ, gates and participant stream — even on a
// replica built from another seed, restored from the full θ instead of the
// shipped sub-model — and both leave the stream at the same position.
func TestTrainMatchesLocalStep(t *testing.T) {
	ds := testDataset(t)
	cfg := testNet()
	shard := shardOf(20) // several epochs over four calls: reshuffles draw too
	const seed = 77
	svc, client := serveParticipant(t, ds, shard, cfg, seed, wire.FP64)

	part, err := fed.NewParticipant(0, shard, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.NewReplica(12345, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sl fed.Slot
	net, err := nas.NewSupernet(rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	theta := nn.CloneParamValues(net.Params())
	rng := rand.New(rand.NewSource(9))
	for call := 0; call < 4; call++ {
		g := randomGates(rng, cfg)
		req := &TrainRequest{
			Round: call, Normal: g.Normal, Reduce: g.Reduce,
			Weights: flattenValues(net.SampledParams(g)), BatchSize: 8,
		}
		var reply TrainReply
		if err := client.Call("Participant.Train", req, &reply); err != nil {
			t.Fatal(err)
		}
		st := fed.Step{Gates: g, Theta: theta, BatchSize: 8, Augment: data.DefaultAugment()}
		if err := rep.Train(ds, part, st, &sl); err != nil {
			t.Fatal(err)
		}
		direct := make([][]float64, len(sl.Grads))
		for i, gr := range sl.Grads {
			direct[i] = gr.Data()
		}
		if !sameBits(reply.Grads, direct) {
			t.Fatalf("call %d: gradients over RPC differ from the local step's", call)
		}
		if math.Float64bits(reply.Reward) != math.Float64bits(sl.Acc) ||
			math.Float64bits(reply.Loss) != math.Float64bits(sl.Loss) {
			t.Fatalf("call %d: reward/loss %v/%v over RPC, %v/%v locally", call, reply.Reward, reply.Loss, sl.Acc, sl.Loss)
		}
	}
	svc.mu.Lock()
	got := svc.part.Src.Pos()
	svc.mu.Unlock()
	if want := part.Src.Pos(); got != want {
		t.Errorf("participant stream at %d draws after RPC calls, %d after local steps", got, want)
	}
}

// twoReplicaNet returns testNet with the given layer count — a structure
// whose replica pool belongs to the calling test — and creates that pool
// with room for two replicas, whatever the host's core count.
func twoReplicaNet(t *testing.T, layers int) nas.Config {
	t.Helper()
	cfg := testNet()
	cfg.Layers = layers
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if n := cap(poolFor(cfg).lent); n != 2 {
		t.Fatalf("pool of %d replicas, want 2", n)
	}
	return cfg
}

// built returns the distinct replicas an idle pool holds.
func (rp *replicaPool) built(t *testing.T) map[*fed.Replica]bool {
	t.Helper()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if len(rp.lent) != 0 {
		t.Fatalf("%d replicas still lent", len(rp.lent))
	}
	reps := map[*fed.Replica]bool{}
	for _, rep := range rp.free {
		reps[rep] = true
	}
	return reps
}

// net/rpc encodes a reply after Train returns, concurrently with the next
// call's Train, so a reply must never alias buffers a later step
// overwrites: an earlier reply keeps its values through later calls, and two
// overlapping calls over the wire — each on a replica of its own — answer
// exactly what two serial calls on an identical participant answer, in
// either order (under -race, also without a reported race).
func TestConcurrentTrainRepliesMatchSerial(t *testing.T) {
	ds := testDataset(t)
	cfg := twoReplicaNet(t, 3)
	net, err := nas.NewSupernet(rand.New(rand.NewSource(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := randomGates(rand.New(rand.NewSource(5)), cfg)
	req := &TrainRequest{Normal: g.Normal, Reduce: g.Reduce, Weights: flattenValues(net.SampledParams(g)), BatchSize: 8}

	serial, err := NewParticipantService(0, ds, shardOf(24), cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	var replies [2]TrainReply
	var want [2][][]float64 // what an encoder reading right after return sends
	for i := range replies {
		if err := serial.Train(req, &replies[i]); err != nil {
			t.Fatal(err)
		}
		for _, g := range replies[i].Grads {
			want[i] = append(want[i], append([]float64(nil), g...))
		}
	}
	if !sameBits(replies[0].Grads, want[0]) {
		t.Fatal("a later Train rewrote an earlier reply")
	}
	if sameBits(want[0], want[1]) {
		t.Fatal("the two serial calls trained on the same batch; the test cannot tell them apart")
	}

	svc, client := serveParticipant(t, ds, shardOf(24), cfg, 31, wire.FP64)
	// Hold the participant's step lock until both calls have borrowed a
	// replica, so each trains on its own: the pool of two lends both.
	svc.mu.Lock()
	var got [2]TrainReply
	calls := [2]*rpc.Call{
		client.Go("Participant.Train", req, &got[0], nil),
		client.Go("Participant.Train", req, &got[1], nil),
	}
	for len(svc.pool.lent) < 2 {
		time.Sleep(time.Millisecond)
	}
	svc.mu.Unlock()
	for _, c := range calls {
		if err := (<-c.Done).Error; err != nil {
			t.Fatal(err)
		}
	}
	if n := len(svc.pool.built(t)); n != 2 {
		t.Errorf("the pool built %d replicas for two overlapping calls, want 2", n)
	}
	if !(sameBits(got[0].Grads, want[0]) && sameBits(got[1].Grads, want[1])) &&
		!(sameBits(got[0].Grads, want[1]) && sameBits(got[1].Grads, want[0])) {
		t.Error("concurrent replies do not match the serial ones")
	}
}

// rpcBenchNet and rpcBenchDataset are the rpc benchmark workload's network
// and its data at the given seed.
func rpcBenchNet() nas.Config {
	return nas.Config{InChannels: 3, NumClasses: 10, C: 6, Layers: 2, Nodes: 2, Candidates: nas.AllOps}
}

func rpcBenchDataset(t *testing.T, seed int64) *data.Dataset {
	t.Helper()
	ds, err := data.Generate(data.Spec{
		Name: "rpcbench", NumClasses: 10, Channels: 3, Height: 8, Width: 8,
		TrainPerClass: 32, TestPerClass: 8, Noise: 1.0, Confusion: 0.3, Seed: seed + 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// A steady-state dense Train allocates nothing: the batch indices are drawn
// into the slot's buffer. Its reply gradients come from the participant's
// free list, which
// the binary codec refills once it has encoded a reply (done by hand here).
// Building a model per call (the design this replaced) cost 1,101 objects on
// this network; copying the reply out into fresh slices, one per gradient
// tensor plus one.
func TestParticipantTrainSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	const pinned = 0
	ds := rpcBenchDataset(t, 1)
	cfg := rpcBenchNet()
	svc, err := NewParticipantService(0, ds, shardOf(40), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nas.NewSupernet(rand.New(rand.NewSource(2)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	request := func(g nas.Gates) *TrainRequest {
		return &TrainRequest{Normal: g.Normal, Reduce: g.Reduce, Weights: flattenValues(net.SampledParams(g)), BatchSize: 8}
	}
	var reply TrainReply
	train := func(req *TrainRequest) {
		if err := svc.Train(req, &reply); err != nil {
			t.Error(err)
		}
		svc.grads <- reply.Grads
	}
	// Warm-up: every candidate on every edge once, so every canonical
	// gradient buffer of the step's slot exists and the reply buffer has
	// grown to the largest sub-model.
	for c := range cfg.Candidates {
		g := nas.Gates{Normal: make([]int, nas.NumEdges(cfg.Nodes)), Reduce: make([]int, nas.NumEdges(cfg.Nodes))}
		for e := range g.Normal {
			g.Normal[e], g.Reduce[e] = c, c
		}
		train(request(g))
	}
	req := request(randomGates(rand.New(rand.NewSource(6)), cfg))
	allocs := testing.AllocsPerRun(20, func() { train(req) })
	t.Logf("steady-state Train: %.0f allocs for %d gradient tensors", allocs, len(req.Weights))
	if allocs != pinned {
		t.Errorf("Train allocates %.0f objects, pinned at %d", allocs, pinned)
	}
}

// A gate vector from the wire selects candidates by index: an out-of-range,
// negative or wrongly sized one must come back as an error — which the
// server counts as a lost reply — and never reach an index expression. Over
// both codecs; the connection survives every rejection.
func TestTrainRejectsMalformedGates(t *testing.T) {
	ds := testDataset(t)
	cfg := testNet()
	net, err := nas.NewSupernet(rand.New(rand.NewSource(8)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	valid := randomGates(rand.New(rand.NewSource(9)), cfg)
	weights := flattenValues(net.SampledParams(valid))
	cases := []struct {
		name    string
		mut     func(*nas.Gates)
		gobOnly bool // the binary codec cannot carry it: its encoder refuses
	}{
		{name: "valid", mut: func(*nas.Gates) {}},
		{name: "out of range", mut: func(g *nas.Gates) { g.Normal[len(g.Normal)-1] = 99 }},
		{name: "one past end", mut: func(g *nas.Gates) { g.Reduce[0] = len(cfg.Candidates) }},
		{name: "negative", mut: func(g *nas.Gates) { g.Reduce[0] = -1 }, gobOnly: true},
		{name: "short", mut: func(g *nas.Gates) { g.Normal = g.Normal[:len(g.Normal)-1] }},
		{name: "long", mut: func(g *nas.Gates) { g.Reduce = append(g.Reduce, 0) }},
	}
	for _, mode := range []wire.Mode{wire.Gob, wire.FP64} {
		_, client := serveParticipant(t, ds, shardOf(24), cfg, 3, mode)
		for _, tc := range cases {
			if tc.gobOnly && mode != wire.Gob {
				continue
			}
			g := nas.CloneGates(valid)
			tc.mut(&g)
			train := &TrainRequest{Normal: g.Normal, Reduce: g.Reduce, Weights: weights, BatchSize: 8}
			err := client.Call("Participant.Train", train, &TrainReply{})
			switch {
			case tc.name == "valid" && err != nil:
				t.Errorf("%v: valid gates rejected: %v", mode, err)
			case tc.name != "valid" && (err == nil || !strings.Contains(err.Error(), "gate")):
				t.Errorf("%v %s: want a gate error, got %v", mode, tc.name, err)
			}
			var hello HelloReply
			if err := client.Call("Participant.Hello", &HelloRequest{}, &hello); err != nil {
				t.Fatalf("%v %s: connection dead after the rejection: %v", mode, tc.name, err)
			}
		}
	}
}

// Participants of one process borrow replicas from one pool per network
// structure. A participant gets one while another holds one (a single shared
// replica would make it wait), the pool never builds more replicas than its
// size — the core count when it was created — it lends the replica returned
// last first, and a step that fails before training hands its replica back.
func TestParticipantsShareReplicaPool(t *testing.T) {
	ds := testDataset(t)
	cfg := twoReplicaNet(t, 4)
	svc := func(id int, cfg nas.Config) *ParticipantService {
		p, err := NewParticipantService(id, ds, shardOf(10), cfg, int64(id+1))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	other := cfg
	other.C++
	a, b, c := svc(0, cfg), svc(1, cfg), svc(2, other)
	if a.pool != b.pool || a.pool == c.pool {
		t.Fatal("replica pools must be keyed by network structure")
	}

	net, err := nas.NewSupernet(rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := nas.Gates{Normal: make([]int, nas.NumEdges(cfg.Nodes)), Reduce: make([]int, nas.NumEdges(cfg.Nodes))}
	req := &TrainRequest{Normal: g.Normal, Reduce: g.Reduce, Weights: flattenValues(net.SampledParams(g)), BatchSize: 8}
	acquire := func(p *ParticipantService) <-chan *fed.Replica {
		got := make(chan *fed.Replica, 1)
		go func() {
			rep, _, err := p.acquireReplica(g, 8)
			if err != nil {
				t.Error(err)
			}
			got <- rep
		}()
		return got
	}
	within := func(got <-chan *fed.Replica, what string) *fed.Replica {
		select {
		case rep := <-got:
			return rep
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: acquireReplica still waiting", what)
			return nil
		}
	}
	ra := within(acquire(a), "empty pool")
	rb := within(acquire(b), "a holds one replica of two")
	if ra == nil || ra == rb {
		t.Fatal("two holders share a replica")
	}
	third := acquire(a)
	select {
	case <-third:
		t.Fatal("a pool of two handed out a third replica")
	case <-time.After(50 * time.Millisecond):
	}
	b.releaseReplica(rb)
	if rc := within(third, "b released its replica"); rc != rb {
		t.Fatal("the waiting call did not get the released replica")
	}
	a.releaseReplica(rb)
	a.releaseReplica(ra)
	if a.pool.get() != ra {
		t.Fatal("the pool did not lend the most recently returned replica first")
	}
	a.releaseReplica(ra)

	bad := *req
	bad.Weights = bad.Weights[:1]
	if err := a.Train(&bad, &TrainReply{}); err == nil {
		t.Fatal("truncated weights accepted")
	}
	var wg sync.WaitGroup
	for _, p := range []*ParticipantService{a, b, a, b} {
		wg.Add(1)
		go func(p *ParticipantService) {
			defer wg.Done()
			if err := p.Train(req, &TrainReply{}); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	if n := len(a.pool.built(t)); n != 2 {
		t.Errorf("a pool of two built %d replicas", n)
	}
}
