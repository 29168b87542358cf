package round

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedrlnas/internal/cohort"
	"fedrlnas/internal/controller"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/parallel"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
)

const (
	enrolled   = 8
	cohortSize = 4
	delta      = 2
	lambda     = 0.5
	thetaLR    = 0.1
	alphaLR    = 0.3
)

// A scripted reply names the dispatch it answers by round and cohort
// position (member j of that round's cohort), so the script is independent of
// which participants the sampler happens to draw.
type scripted struct {
	from   int // dispatch round answered
	member int // position in that round's cohort; -1 = a participant outside it
	status Status
	bad    string // "", "short" (one gradient missing), "shape" (wrong tensor shape)
	// want is the outcome under Use and DC; a late reply (from < now) is
	// dropped under Hard and Throw whatever this says.
	want string
}

// fake is the scripted Transport. It keeps its own deep copies of every
// round's snapshot, so what the test expects never reads the core's memory.
type fake struct {
	net    *nas.Supernet
	index  map[*nn.Param]int
	script map[int][]scripted
	seen   map[int]*Snapshot
	sent   [][]Reply
	// onExchange, when set, runs first in every Exchange with the core's
	// own snapshot.
	onExchange func(t int, snap *Snapshot)
}

func (f *fake) Exchange(_ context.Context, t int, snap *Snapshot) ([]Reply, error) {
	if f.onExchange != nil {
		f.onExchange(t, snap)
	}
	f.seen[t] = &Snapshot{
		Theta:  cloneTensors(snap.Theta),
		Alpha:  controller.AlphaSnapshot{Normal: cloneRows(snap.Alpha.Normal), Reduce: cloneRows(snap.Alpha.Reduce)},
		Cohort: append([]int(nil), snap.Cohort...),
		Gates:  make([]nas.Gates, len(snap.Gates)),
	}
	for j, g := range snap.Gates { // the core refills gate storage once a round is evicted
		f.seen[t].Gates[j] = nas.Gates{Normal: append([]int(nil), g.Normal...), Reduce: append([]int(nil), g.Reduce...)}
	}
	var out []Reply
	for _, sc := range f.script[t] {
		out = append(out, f.reply(t, sc))
	}
	f.sent = append(f.sent, out)
	return out, nil
}

// reply builds the wire-level answer to a scripted entry. Dispatches the
// core never made (a future round, a skipped one, a non-member) still get a
// well-formed payload, so only the acceptance rule can refuse them.
func (f *fake) reply(now int, sc scripted) Reply {
	at := f.seen[sc.from]
	if at == nil {
		at = f.seen[now]
	}
	pid, pos := 0, 0
	if sc.member >= 0 {
		pid, pos = at.Cohort[sc.member], sc.member
	} else {
		for _, ok := cohort.Position(at.Cohort, pid); ok; _, ok = cohort.Position(at.Cohort, pid) {
			pid++
		}
	}
	r := Reply{Round: sc.from, PID: pid, Status: sc.status}
	if sc.status != Returned {
		return r
	}
	r.Acc = 0.25 + 0.05*float64(pos)
	for _, p := range f.net.SampledParams(at.Gates[pos]) {
		g := tensor.Full(gradValue(pos, sc.from), p.Value.Shape()...)
		r.SubIdx = append(r.SubIdx, f.index[p])
		r.Grads = append(r.Grads, g)
	}
	switch sc.bad {
	case "short":
		r.Grads = r.Grads[:len(r.Grads)-1]
	case "shape":
		r.Grads[0] = tensor.New(r.Grads[0].Size() + 1)
	}
	return r
}

// gradValue is the constant every element of a scripted gradient holds.
func gradValue(pos, from int) float64 { return 0.01*float64(1+pos) - 0.002*float64(from) }

type harness struct {
	core   *Core
	fake   *fake
	net    *nas.Supernet
	ctrl   *controller.Controller
	rng    *rand.Rand
	reg    *telemetry.Registry
	trace  *bytes.Buffer
	params []*nn.Param
}

func newHarness(t *testing.T, strategy staleness.Strategy, script map[int][]scripted) *harness {
	t.Helper()
	netCfg := nas.Config{InChannels: 2, NumClasses: 3, C: 2, Layers: 2, Nodes: 1, Candidates: nas.AllOps}
	net, err := nas.NewSupernet(rand.New(rand.NewSource(7)), netCfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{net: net, rng: rand.New(rand.NewSource(3)), params: net.Params(),
		reg: telemetry.NewRegistry(), trace: new(bytes.Buffer)}
	h.fake = &fake{net: net, index: make(map[*nn.Param]int), script: script, seen: make(map[int]*Snapshot)}
	for i, p := range h.params {
		h.fake.index[p] = i
	}
	// No momentum, decay, clip or baseline (a clip no gradient reaches): the
	// steps are then plain enough to recompute by hand.
	spec := Spec{
		Net:        netCfg,
		Alpha:      controller.Config{LR: alphaLR, GradClip: 1e9, DisableBaseline: true},
		BatchSize:  1,
		ThetaLR:    thetaLR,
		SyncConfig: staleness.SyncConfig{Quorum: 1, StalenessThreshold: delta, Lambda: lambda, Strategy: strategy, CohortSize: cohortSize},
		Seed:       11,
	}
	core, err := New(Config{
		Spec: spec, Enrolled: enrolled, Supernet: net, RNG: h.rng, Pool: parallel.New(2),
		StepParams: h.params,
	}, h.fake)
	if err != nil {
		t.Fatal(err)
	}
	h.core, h.ctrl = core, core.Controller()
	h.core.SetTelemetry(telemetry.NewJSONLTracer(h.trace), telemetry.NewRoundMetrics(h.reg))
	return h
}

// outcomes parses the trace for the reply.* events of one round, in the
// order the core judged them.
func (h *harness) outcomes(t *testing.T, round int) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(h.trace.Bytes()))
	for sc.Scan() {
		var e struct {
			Event       string `json:"event"`
			Round       int    `json:"round"`
			Participant int    `json:"participant"`
			Staleness   int    `json:"staleness"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if e.Round == round && strings.HasPrefix(e.Event, "reply.") {
			out = append(out, fmt.Sprintf("%s pid=%d delay=%d", strings.TrimPrefix(e.Event, "reply."), e.Participant, e.Staleness))
		}
	}
	return out
}

func (h *harness) assertFinite(t *testing.T, round int) {
	t.Helper()
	for _, p := range h.params {
		for _, v := range p.Value.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("round %d: θ %q is not finite", round, p.Name)
			}
		}
	}
	a := h.ctrl.View()
	for _, rows := range [][][]float64{a.Normal, a.Reduce} {
		for _, row := range rows {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("round %d: α is not finite", round)
				}
			}
		}
	}
}

// The script: every kind of reply Alg. 1 has to tell apart. Rounds 4 and 5
// are never stepped, so at round 6 the snapshot of round 5 does not exist.
var rounds = []int{0, 1, 2, 3, 6}

var script = map[int][]scripted{
	0: {
		{from: 0, member: 0, want: "fresh"},
		// members 1, 2 and 3 are stragglers: they answer in rounds 2, 3 and 1.
	},
	1: {
		{from: 0, member: 3, want: "late"}, // one round late
		{from: 1, member: 1, status: Lost, want: "dropped"},
		{from: 1, member: 2, bad: "short", want: "dropped"},
		{from: 1, member: 3, want: "fresh"},
		// member 0 answers in round 2, twice.
	},
	2: {
		{from: 0, member: 1, want: "late"},     // exactly Δ late
		{from: 1, member: 0, want: "late"},     // one dispatch ...
		{from: 1, member: 0, want: "dropped"},  // ... answered twice
		{from: 2, member: -1, want: "dropped"}, // not in round 2's cohort
		{from: 2, member: 2, want: "fresh"},
		{from: 2, member: 3, status: Offline, want: "offline"},
		{from: 5, member: 0, want: "dropped"}, // a round that has not happened
	},
	3: {
		{from: 0, member: 2, want: "dropped"}, // older than Δ
		{from: 3, member: 0, bad: "shape", want: "dropped"},
		{from: 3, member: 1, want: "fresh"},
		{from: 3, member: 1, want: "dropped"}, // a fresh reply, repeated
		{from: -1, member: 0, want: "dropped"},
	},
	6: {
		{from: 5, member: 0, want: "dropped"}, // within Δ, but no snapshot was ever kept
		{from: 3, member: 2, want: "dropped"}, // older than Δ
		{from: 6, member: 3, want: "fresh"},
	},
}

// wantUnder resolves a scripted entry's expected outcome under a strategy.
func (sc scripted) wantUnder(strategy staleness.Strategy) string {
	if sc.want == "late" && (strategy == staleness.Hard || strategy == staleness.Throw) {
		return "dropped"
	}
	return sc.want
}

func TestCoreJudgesScriptedReplies(t *testing.T) {
	strategies := []staleness.Strategy{staleness.Hard, staleness.Use, staleness.Throw, staleness.DC}
	var nextDraw []int64
	for _, strategy := range strategies {
		t.Run(strategy.String(), func(t *testing.T) {
			h := newHarness(t, strategy, script)
			var total Report
			for _, r := range rounds {
				rep, err := h.core.Step(context.Background(), r, true, true)
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				sent := h.fake.sent[len(h.fake.sent)-1]
				// Every reply handed over is tallied exactly once.
				if got := rep.Fresh + rep.Late + rep.Dropped + rep.Offline; got != len(sent) {
					t.Errorf("round %d: fresh %d + late %d + dropped %d + offline %d != %d replies",
						r, rep.Fresh, rep.Late, rep.Dropped, rep.Offline, len(sent))
				}
				// ... with the outcome the script expects, reply by reply: in
				// particular nothing older than Δ and no second answer to one
				// dispatch is merged.
				var want []string
				for i, sc := range script[r] {
					delay := 0
					if sc.from >= 0 && sc.from < r {
						delay = r - sc.from
					}
					if sc.status == Offline {
						delay = 0
					}
					want = append(want, fmt.Sprintf("%s pid=%d delay=%d", sc.wantUnder(strategy), sent[i].PID, delay))
				}
				if got := h.outcomes(t, r); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("round %d outcomes:\n got  %v\n want %v", r, got, want)
				}
				h.assertFinite(t, r)
				total.Fresh += rep.Fresh
				total.Late += rep.Late
				total.Dropped += rep.Dropped
				total.Offline += rep.Offline
				if n := h.core.Retained(); n > delta {
					t.Errorf("round %d: %d snapshots retained, want <= Δ = %d", r, n, delta)
				}
			}
			for name, want := range map[string]int{
				"replies_fresh_total": total.Fresh, "replies_late_total": total.Late,
				"replies_dropped_total": total.Dropped, "participants_offline_total": total.Offline,
				"rounds_total": len(rounds),
			} {
				if got := int(h.reg.Counter(name, "").Value()); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if strategy == staleness.Use || strategy == staleness.DC {
				if total.Late != 3 {
					t.Errorf("late = %d, want the script's 3", total.Late)
				}
			} else if total.Late != 0 {
				t.Errorf("%v merged %d late replies", strategy, total.Late)
			}
			nextDraw = append(nextDraw, h.rng.Int63())
		})
	}
	// One gate vector per member per round, whatever came back: after the
	// same rounds the gate stream stands at the same place under every
	// strategy, and under a script where nobody ever answers.
	h := newHarness(t, staleness.DC, nil)
	for _, r := range rounds {
		if _, err := h.core.Step(context.Background(), r, true, true); err != nil {
			t.Fatal(err)
		}
	}
	nextDraw = append(nextDraw, h.rng.Int63())
	for i, v := range nextDraw {
		if v != nextDraw[0] {
			t.Errorf("gate stream position differs between reply scripts: run %d drew %d, run 0 drew %d", i, v, nextDraw[0])
		}
	}
}

// A late reply under DC is compensated against the θ, α and gates of the
// round that dispatched it — not the current one's. Round 1 merges exactly
// one reply, a straggler's answer to round 0, so the step it takes can be
// recomputed by hand from Eq. 13–15.
func TestCoreCompensatesAgainstDispatchRound(t *testing.T) {
	h := newHarness(t, staleness.DC, map[int][]scripted{
		0: {{from: 0, member: 0}, {from: 0, member: 1}}, // moves θ and α
		1: {{from: 0, member: 2}},
	})
	for r := 0; r < 2; r++ {
		if _, err := h.core.Step(context.Background(), r, true, true); err != nil {
			t.Fatal(err)
		}
	}
	at, now := h.fake.seen[0], h.fake.seen[1]
	r := h.fake.sent[1][0]
	gk := at.Gates[2]
	if fmt.Sprint(gk) == fmt.Sprint(now.Gates[2]) || fmt.Sprint(at.Alpha) == fmt.Sprint(now.Alpha) {
		t.Fatal("round 0 and round 1 do not differ; the test would not tell them apart")
	}

	// Eq. 13: g + λ·g⊙g⊙(θ_1 − θ_0), left in Grad by the single-contributor
	// merge (the optimizer here neither clips nor decays).
	g, moved := gradValue(2, 0), false
	for _, idx := range r.SubIdx {
		got := h.params[idx].Grad.Data()
		f, s := now.Theta[idx].Data(), at.Theta[idx].Data()
		for j := range got {
			want := g
			want += lambda * g * g * (f[j] - s[j])
			if got[j] != want {
				t.Fatalf("θ[%d][%d] merged gradient %v, want %v", idx, j, got[j], want)
			}
			moved = moved || f[j] != s[j]
		}
	}
	if !moved {
		t.Fatal("no carried parameter moved between round 0 and round 1")
	}

	// Eq. 12 at α_0 for the gates of round 0, then Eq. 15's correction with
	// the drift α_1 − α_0; the controller takes one plain ascent step.
	check := func(name string, a0, a1, a2 [][]float64, gates []int) {
		for e, k := range gates {
			p := make([]float64, len(a0[e]))
			tensor.SoftmaxInto(p, a0[e])
			for j := range p {
				lg := -p[j]
				if j == k {
					lg++
				}
				dc := lg + lambda*lg*lg*(a1[e][j]-a0[e][j])
				want := a1[e][j] + alphaLR*r.Acc*dc
				if math.Abs(a2[e][j]-want) > 1e-12 {
					t.Fatalf("α %s[%d][%d] = %v after the step, want %v", name, e, j, a2[e][j], want)
				}
			}
		}
	}
	after := h.ctrl.View()
	check("normal", at.Alpha.Normal, now.Alpha.Normal, after.Normal, gk.Normal)
	check("reduce", at.Alpha.Reduce, now.Alpha.Reduce, after.Reduce, gk.Reduce)
}

// The snapshot pool holds exactly the rounds a reply may still answer: after
// round r, the last min(r+1, Δ) under soft sync, each at a fixed address
// until evicted; under hard sync, the one live snapshot aliasing θ. An
// evicted round is refused, and its storage comes back for a later round.
func TestSnapshotRingRetainsDelta(t *testing.T) {
	h := newHarness(t, staleness.DC, nil)
	held := map[int]*Snapshot{}
	h.fake.onExchange = func(t int, snap *Snapshot) { held[t] = snap }
	for r := 0; r < 3*(delta+2); r++ {
		if _, err := h.core.Step(context.Background(), r, true, true); err != nil {
			t.Fatal(err)
		}
		if n := h.core.Retained(); n != min(r+1, delta) {
			t.Fatalf("after round %d: %d snapshots retained, want %d", r, n, min(r+1, delta))
		}
		for from := max(r-delta-1, 0); from <= r; from++ {
			pid := h.core.Sampler().Cohort(from)[0]
			at, _, v := h.core.Admit(r+1, from, pid)
			switch {
			case from <= r-delta && v != Dropped:
				t.Errorf("round %d: round %d's evicted snapshot admitted a reply (%v)", r+1, from, v)
			case from > r-delta && (at != held[from] || at.Theta[0] == h.params[0].Value):
				t.Errorf("round %d: round %d's snapshot moved or aliases live θ", r+1, from)
			}
		}
	}
	if held[0] != held[delta+2] {
		t.Error("round Δ+2 did not reuse round 0's evicted snapshot")
	}

	h = newHarness(t, staleness.Hard, nil)
	for r := 0; r < 3; r++ {
		if _, err := h.core.Step(context.Background(), r, true, true); err != nil {
			t.Fatal(err)
		}
		at, _, v := h.core.Admit(r, r, h.core.Sampler().Cohort(r)[0])
		if n := h.core.Retained(); n != 1 || v != Fresh || at.Theta[0] != h.params[0].Value {
			t.Errorf("hard sync, round %d: %d retained, verdict %v, want the one live snapshot", r, n, v)
		}
	}
}

func cloneTensors(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// infTransport is the scripted transport with one gradient element of the
// first reply replaced by +Inf.
type infTransport struct{ *fake }

func (f infTransport) Exchange(ctx context.Context, t int, snap *Snapshot) ([]Reply, error) {
	out, err := f.fake.Exchange(ctx, t, snap)
	if len(out) > 0 && len(out[0].Grads) > 0 {
		out[0].Grads[0].Data()[0] = math.Inf(1)
	}
	return out, err
}

// A gradient that makes θ non-finite stops the round with ErrDiverged naming
// the round and the parameter, instead of stepping on silently.
func TestStepReportsDivergedTheta(t *testing.T) {
	script := map[int][]scripted{
		0: {{from: 0, member: 0, status: Returned}},
		1: {{from: 1, member: 0, status: Returned}},
	}
	h := newHarness(t, staleness.Hard, script)
	if _, err := h.core.Step(context.Background(), 0, true, true); err != nil {
		t.Fatalf("finite round: %v", err)
	}
	h.assertFinite(t, 0)
	h.core.tr = infTransport{h.fake}
	_, err := h.core.Step(context.Background(), 1, true, true)
	var div *ErrDiverged
	if !errors.As(err, &div) {
		t.Fatalf("Step with an Inf gradient returned %v, want ErrDiverged", err)
	}
	want := h.params[h.fake.sent[1][0].SubIdx[0]].Name
	if div.Round != 1 || div.Param != want {
		t.Fatalf("ErrDiverged{Round: %d, Param: %q}, want round 1, parameter %q", div.Round, div.Param, want)
	}
}
