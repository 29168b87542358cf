package search

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"fedrlnas/internal/controller"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// Checkpoint format: a small binary header, the α matrices, every supernet
// parameter tensor in canonical order (tensor wire format), the optimizer
// and stream state a bit-exact resume needs (the θ momentum buffers, the
// search RNG position, and each materialized participant's RNG position
// and batcher order), and the personalized per-client heads (a count of 0
// when the run is not personalized). Checkpoints let long
// search phases resume across process restarts — the paper's search runs
// for hours even on GPUs — and back the resident server's job lifecycle
// (pause/resume/drain in internal/serve).
//
// Resume contract: under hard synchronization (the default) a restored
// run reproduces the uninterrupted run's θ and α bit for bit — pinned by
// TestResumeReproducesUninterruptedRun. Under soft synchronization the
// staleness pools' history (snapshots of rounds before the restart) is
// not persisted, so in-flight stale replies that straddle the restart are
// skipped rather than applied; the run re-converges but is not bit-exact
// for the first StalenessThreshold rounds.
const (
	checkpointMagic = uint32(0xfed51a5e)
	// checkpointVersion is the one layout written and read; any other
	// version is refused.
	checkpointVersion = uint32(4)
)

// SaveCheckpoint writes the current search state to path crash-safely: the
// bytes go to a uniquely named temp file in the same directory, are fsynced,
// and the temp file is atomically renamed over path (with a directory sync
// so the rename itself survives a crash). A crash at any instant leaves
// either the previous complete checkpoint or the new one — never a torn
// file — which is what lets a kill -9 mid-write resume cleanly.
func (s *Search) SaveCheckpoint(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	w := bufio.NewWriter(f)
	err = s.writeCheckpoint(w)
	if err2 := w.Flush(); err == nil {
		err = err2
	}
	// Sync before rename: without it the rename can land on disk before
	// the data, and a crash in between yields a complete-looking file of
	// garbage at the final path.
	if err2 := f.Sync(); err == nil {
		err = err2
	}
	if err2 := f.Close(); err == nil {
		err = err2
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// LoadCheckpoint restores the search state from a checkpoint written by
// SaveCheckpoint. The search must have been built with an identical Config.
func (s *Search) LoadCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	if err := s.readCheckpoint(bufio.NewReader(f)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

func (s *Search) writeCheckpoint(w io.Writer) error {
	for _, v := range []uint32{checkpointMagic, checkpointVersion, uint32(s.round)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, s.ctrl.Baseline()); err != nil {
		return err
	}
	snap := s.ctrl.Snapshot()
	if err := writeRows(w, snap.Normal); err != nil {
		return err
	}
	if err := writeRows(w, snap.Reduce); err != nil {
		return err
	}
	params := s.net.Params()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if _, err := p.Value.WriteTo(w); err != nil {
			return err
		}
	}
	// θ momentum, one presence-tagged tensor per canonical parameter.
	for _, p := range params {
		v := s.thetaOpt.Velocity(p)
		if v == nil {
			if _, err := w.Write([]byte{0}); err != nil {
				return err
			}
			continue
		}
		if _, err := w.Write([]byte{1}); err != nil {
			return err
		}
		if _, err := v.WriteTo(w); err != nil {
			return err
		}
	}
	// Stream positions — the search RNG, then every materialized
	// participant's RNG and batcher order.
	if err := binary.Write(w, binary.LittleEndian, s.rngSrc.Pos()); err != nil {
		return err
	}
	states := s.pop.States()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(states))); err != nil {
		return err
	}
	for _, st := range states {
		header := []uint32{uint32(st.ID), uint32(len(st.Pool)), uint32(st.Pos)}
		for _, v := range header {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if err := binary.Write(w, binary.LittleEndian, st.RNGPos); err != nil {
			return err
		}
		for _, idx := range st.Pool {
			if err := binary.Write(w, binary.LittleEndian, uint32(idx)); err != nil {
				return err
			}
		}
	}
	// Personalized heads, in ascending participant-id order so the bytes
	// are independent of map iteration (and of sampling history beyond
	// which clients were ever drawn). A non-personalized run has none.
	ids := make([]int, 0, len(s.heads))
	for id := range s.heads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		if err := binary.Write(w, binary.LittleEndian, uint32(id)); err != nil {
			return err
		}
		for _, t := range s.heads[id] {
			if _, err := t.WriteTo(w); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Search) readCheckpoint(r io.Reader) error {
	var magic, version, round uint32
	for _, dst := range []*uint32{&magic, &version, &round} {
		if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
			return err
		}
	}
	if magic != checkpointMagic {
		return fmt.Errorf("bad magic %#x", magic)
	}
	if version != checkpointVersion {
		return fmt.Errorf("unsupported version %d (this build reads version %d only)", version, checkpointVersion)
	}
	var baseline float64
	if err := binary.Read(r, binary.LittleEndian, &baseline); err != nil {
		return err
	}
	normal, err := readRows(r)
	if err != nil {
		return err
	}
	reduce, err := readRows(r)
	if err != nil {
		return err
	}
	if err := s.ctrl.Restore(controller.AlphaSnapshot{Normal: normal, Reduce: reduce}); err != nil {
		return err
	}
	// Re-seed the moving average — but only when the saved run had set it
	// (one search round completed). A checkpoint from the warmup phase has
	// baseline 0 with the bootstrap still pending; seeding 0 here would make
	// the first resumed search round subtract a baseline the uninterrupted
	// run never had.
	if int(round) > s.cfg.WarmupSteps {
		s.ctrl.UpdateBaseline(baseline)
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	params := s.net.Params()
	if int(n) != len(params) {
		return fmt.Errorf("checkpoint has %d tensors, supernet has %d", n, len(params))
	}
	for _, p := range params {
		t, err := tensor.ReadFrom(r)
		if err != nil {
			return err
		}
		if !t.SameShape(p.Value) {
			return fmt.Errorf("checkpoint tensor shape %v != param %q shape %v",
				t.Shape(), p.Name, p.Value.Shape())
		}
		p.Value.CopyFrom(t)
	}
	if err := s.readResumeState(r, params); err != nil {
		return err
	}
	if err := s.readHeads(r); err != nil {
		return err
	}
	s.round = int(round)
	return nil
}

// readHeads restores the personalized-head section, materializing each
// listed client's head and overwriting it with the saved values.
func (s *Search) readHeads(r io.Reader) error {
	var nHeads uint32
	if err := binary.Read(r, binary.LittleEndian, &nHeads); err != nil {
		return err
	}
	if nHeads == 0 {
		return nil
	}
	if !s.personalize {
		return fmt.Errorf("checkpoint has %d personalized heads but the config does not set Scenario.Personalize", nHeads)
	}
	if int(nHeads) > s.pop.Len() {
		return fmt.Errorf("checkpoint has %d heads for population of %d", nHeads, s.pop.Len())
	}
	for i := 0; i < int(nHeads); i++ {
		var id uint32
		if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
			return err
		}
		if int(id) >= s.pop.Len() {
			return fmt.Errorf("head for participant %d outside population of %d", id, s.pop.Len())
		}
		s.ensureHead(int(id))
		for j, dst := range s.heads[int(id)] {
			t, err := tensor.ReadFrom(r)
			if err != nil {
				return err
			}
			if !t.SameShape(dst) {
				return fmt.Errorf("participant %d head tensor %d shape %v != %v", id, j, t.Shape(), dst.Shape())
			}
			dst.CopyFrom(t)
		}
	}
	return nil
}

// readResumeState restores the θ momentum, the search RNG position and the
// participant streams.
func (s *Search) readResumeState(r io.Reader, params []*nn.Param) error {
	var tag [1]byte
	for _, p := range params {
		if _, err := io.ReadFull(r, tag[:]); err != nil {
			return err
		}
		if tag[0] == 0 {
			continue
		}
		v, err := tensor.ReadFrom(r)
		if err != nil {
			return err
		}
		if err := s.thetaOpt.SetVelocity(p, v); err != nil {
			return fmt.Errorf("param %q: %w", p.Name, err)
		}
	}
	var rngPos uint64
	if err := binary.Read(r, binary.LittleEndian, &rngPos); err != nil {
		return err
	}
	s.rngSrc.Restore(rngPos)
	var nStates uint32
	if err := binary.Read(r, binary.LittleEndian, &nStates); err != nil {
		return err
	}
	if int(nStates) > s.pop.Len() {
		return fmt.Errorf("checkpoint has %d participant states for population of %d",
			nStates, s.pop.Len())
	}
	states := make([]fed.ParticipantState, nStates)
	for i := range states {
		var id, poolLen, pos uint32
		for _, dst := range []*uint32{&id, &poolLen, &pos} {
			if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
				return err
			}
		}
		if poolLen > 1<<24 {
			return fmt.Errorf("participant %d pool length %d too large", id, poolLen)
		}
		var rngPos uint64
		if err := binary.Read(r, binary.LittleEndian, &rngPos); err != nil {
			return err
		}
		pool := make([]int, poolLen)
		for j := range pool {
			var v uint32
			if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
				return err
			}
			pool[j] = int(v)
		}
		states[i] = fed.ParticipantState{ID: int(id), RNGPos: rngPos, Pool: pool, Pos: int(pos)}
	}
	return s.pop.RestoreStates(states)
}

func writeRows(w io.Writer, rows [][]float64) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(rows))); err != nil {
		return err
	}
	for _, row := range rows {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(row))); err != nil {
			return err
		}
		for _, v := range row {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func readRows(r io.Reader) ([][]float64, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("row count %d too large", n)
	}
	rows := make([][]float64, n)
	for i := range rows {
		var m uint32
		if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
			return nil, err
		}
		if m > 1<<16 {
			return nil, fmt.Errorf("row length %d too large", m)
		}
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			if err := binary.Read(r, binary.LittleEndian, &rows[i][j]); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// Round returns the number of completed communication rounds.
func (s *Search) Round() int { return s.round }

// TotalRounds returns the configured schedule length (P1 warm-up plus P2
// search rounds).
func (s *Search) TotalRounds() int { return s.cfg.WarmupSteps + s.cfg.SearchSteps }

// Phase names reported by StepRound.
const (
	PhaseWarmup = "warmup"
	PhaseSearch = "search"
)

// StepInfo summarizes one StepRound call.
type StepInfo struct {
	// Round is the 0-based index of the round that just ran.
	Round int
	// Phase is PhaseWarmup or PhaseSearch.
	Phase string
	// Accuracy is the round's mean participant training accuracy.
	Accuracy float64
	// Done reports that the schedule (warm-up + search) is complete.
	Done bool
}

// StepRound runs exactly one round of the warm-up → search schedule from
// the current round counter: a warm-up round while Round() < WarmupSteps,
// a search round after. It is the unit of the resident server's job loop —
// pause, cancel and checkpoint decisions happen between StepRound calls —
// and of checkpoint resume: a search restored at round r continues with
// round r's phase. Calling it on a completed schedule is a no-op that
// reports Done.
func (s *Search) StepRound() (StepInfo, error) {
	total := s.TotalRounds()
	if s.round >= total {
		return StepInfo{Round: s.round, Done: true}, nil
	}
	phase := PhaseSearch
	if s.round < s.cfg.WarmupSteps {
		phase = PhaseWarmup
	}
	acc, err := s.stepPhase(phase)
	if err != nil {
		return StepInfo{}, err
	}
	return StepInfo{Round: s.round - 1, Phase: phase, Accuracy: acc, Done: s.round >= total}, nil
}

// stepPhase runs one round of the named phase — warm-up trains θ only with α
// frozen, search runs Alg. 1 — and records it on the phase's curves.
func (s *Search) stepPhase(phase string) (float64, error) {
	t := s.round
	if phase == PhaseWarmup {
		acc, err := s.runRound(false, true)
		if err != nil {
			return 0, fmt.Errorf("warmup round %d: %w", t, err)
		}
		s.WarmupCurve.Add(t, acc)
		return acc, nil
	}
	acc, err := s.runRound(true, !s.cfg.AlphaOnly)
	if err != nil {
		return 0, fmt.Errorf("search round %d: %w", t, err)
	}
	s.SearchCurve.Add(t, acc)
	s.EntropyCurve.Add(t, s.ctrl.Entropy())
	s.BaselineCurve.Add(t, s.ctrl.Baseline())
	return acc, nil
}

// RunContext steps the remaining schedule to completion, checkpointing to
// path every `every` completed rounds and once at the end (path "" disables
// checkpointing; every <= 0 checkpoints only at the end). On cancellation
// it writes a final checkpoint and returns ctx.Err(), so a drained process
// can be restarted with LoadCheckpoint and lose nothing.
func (s *Search) RunContext(ctx context.Context, path string, every int) error {
	for {
		if err := ctx.Err(); err != nil {
			if path != "" {
				if cerr := s.SaveCheckpoint(path); cerr != nil {
					return cerr
				}
			}
			return err
		}
		info, err := s.StepRound()
		if err != nil {
			return err
		}
		if info.Done {
			if path != "" {
				return s.SaveCheckpoint(path)
			}
			return nil
		}
		if path != "" && every > 0 && (info.Round+1)%every == 0 {
			if err := s.SaveCheckpoint(path); err != nil {
				return err
			}
		}
	}
}
