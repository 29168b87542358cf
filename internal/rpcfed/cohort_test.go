package rpcfed

import (
	"reflect"
	"testing"
	"time"
)

// shardedSearchHash runs a short search over a fresh cluster and returns
// the bit-exact final θ hash for the given shard count / cohort size /
// dial policy.
func shardedSearchHash(t *testing.T, k, shards, cohortSize int, lazy bool) uint64 {
	t.Helper()
	addrs, _, stop := startCluster(t, k, nil)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 4
	cfg.Quorum = 1.0
	cfg.Seed = 29
	cfg.Shards = shards
	cfg.CohortSize = cohortSize
	cfg.Transport.LazyDial = lazy
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return thetaHashOf(s)
}

// TestServerShardBitIdentity pins the aggregation tree's contract on the
// RPC server: because sharding splits the θ merge by destination parameter
// index, every shard count must land on the exact same final parameters as
// the default single root merge.
func TestServerShardBitIdentity(t *testing.T) {
	ref := shardedSearchHash(t, 5, 0, 0, false)
	for _, shards := range []int{1, 2, 4, 8} {
		if got := shardedSearchHash(t, 5, shards, 0, false); got != ref {
			t.Errorf("shards=%d: θ hash %#x != single-root %#x", shards, got, ref)
		}
	}
}

// TestServerCohortShardDeterminism runs cohort-sampled rounds (with lazy
// dialing on) across shard counts and repeated runs: all must agree bit
// for bit.
func TestServerCohortShardDeterminism(t *testing.T) {
	ref := shardedSearchHash(t, 5, 1, 2, true)
	if again := shardedSearchHash(t, 5, 1, 2, true); again != ref {
		t.Errorf("same-seed cohort runs diverge: %#x vs %#x", again, ref)
	}
	if sharded := shardedSearchHash(t, 5, 4, 2, true); sharded != ref {
		t.Errorf("shards=4 cohort run diverges: %#x vs %#x", sharded, ref)
	}
	if eager := shardedSearchHash(t, 5, 1, 2, false); eager != ref {
		t.Errorf("eager-dial cohort run diverges: %#x vs %#x", eager, ref)
	}
}

// TestServerCohortLazyConnectionsBounded is the registry memory model:
// with lazy dialing, only participants actually sampled into a cohort ever
// hold a connection, so a short run touches a bounded subset of a larger
// enrollment.
func TestServerCohortLazyConnectionsBounded(t *testing.T) {
	addrs, _, stop := startCluster(t, 8, nil)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 3
	cfg.Quorum = 1.0
	cfg.Seed = 37
	cfg.CohortSize = 2
	cfg.Transport.LazyDial = true
	s, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Registry().Connected(); got != 0 {
		t.Fatalf("connected %d before any round, want 0 under lazy dial", got)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := s.Registry().Connected()
	if got == 0 || got > cfg.Rounds*cfg.CohortSize {
		t.Fatalf("connected %d participants, want in (0, %d]", got, cfg.Rounds*cfg.CohortSize)
	}
	if got >= len(addrs) {
		t.Fatalf("connected to the whole enrollment (%d of %d): lazy dial broken", got, len(addrs))
	}
	sum := s.ParticipantsSummary()
	if sum.Enrolled != 8 || sum.CohortSize != 2 || len(sum.Cohort) != 2 {
		t.Fatalf("summary = %+v, want 8 enrolled, cohort of 2", sum)
	}
}

// TestServerCohortScheduleFaultIndependent compares the cohort schedule of
// a server that ran rounds against a slow participant with that of a twin
// that never ran at all: the schedule is a pure function of the seed, so
// faults and round progress must not perturb it.
func TestServerCohortScheduleFaultIndependent(t *testing.T) {
	slow := map[int]time.Duration{1: 80 * time.Millisecond}
	addrs, _, stop := startCluster(t, 5, slow)
	defer stop()
	cfg := DefaultServerConfig(testNet())
	cfg.Rounds = 5
	cfg.Quorum = 0.5
	cfg.Seed = 41
	cfg.CohortSize = 3
	cfg.RoundTimeout = 2 * time.Second
	ran, err := NewServer(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ran.Close()
	if _, err := ran.Run(); err != nil {
		t.Fatal(err)
	}

	idleAddrs, _, idleStop := startCluster(t, 5, nil)
	defer idleStop()
	idle, err := NewServer(cfg, idleAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	for r := 0; r < cfg.Rounds; r++ {
		if !reflect.DeepEqual(ran.CohortFor(r), idle.CohortFor(r)) {
			t.Fatalf("round %d: cohort schedule perturbed by run/faults: %v vs %v",
				r, ran.CohortFor(r), idle.CohortFor(r))
		}
	}
}

// TestServerLazyDialSurvivesBadAddress: with lazy dialing, an unreachable
// enrollment entry must not block server construction; the first dispatches
// to it fail like any transport failure, the lifecycle machinery declares
// it dead, and the quorum carries the run over the healthy majority.
func TestServerLazyDialSurvivesBadAddress(t *testing.T) {
	addrs, _, stop := startCluster(t, 3, nil)
	defer stop()
	// Reserve a port and close it so dials are refused deterministically.
	bogus := append(append([]string(nil), addrs...), "127.0.0.1:1")

	cfg := DefaultServerConfig(testNet())
	// Rounds close on the healthy quorum without waiting for the doomed
	// peer, so on a loaded host its two failing dials can trail a short
	// run; 16 rounds leave room for both to land.
	cfg.Rounds = 16
	cfg.Quorum = 0.5
	cfg.Seed = 43
	cfg.RoundTimeout = 5 * time.Second
	cfg.Transport.DialAttempts = 1
	cfg.Transport.DialBackoff = 5 * time.Millisecond

	// Eager construction must fail on the unreachable address…
	if eager, err := NewServer(cfg, bogus); err == nil {
		eager.Close()
		t.Fatal("eager NewServer accepted an unreachable participant")
	}

	// …while lazy construction enrolls it as a stub and runs anyway.
	cfg.Transport.LazyDial = true
	s, err := NewServer(cfg, bogus)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsCompleted != cfg.Rounds {
		t.Fatalf("completed %d rounds, want %d", res.RoundsCompleted, cfg.Rounds)
	}
	if res.FreshReplies == 0 {
		t.Fatal("no fresh replies despite a healthy majority")
	}
	if state := s.peers[3].State(); state != StateDead {
		t.Fatalf("unreachable peer state %v, want dead", state)
	}
	if _, _, dead := s.Registry().StateCounts(); dead != 1 {
		t.Fatalf("dead count %d, want 1", dead)
	}
}
