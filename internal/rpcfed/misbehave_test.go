package rpcfed

import (
	"net"
	"net/rpc"
	"testing"
	"time"

	"fedrlnas/internal/wire"
)

// misbehaving is a participant that trains honestly and then lies on the way
// back: about the round it answers, about who it is, or about the payload.
type misbehaving struct {
	inner *ParticipantService
	lie   string
}

func (m *misbehaving) Train(req *TrainRequest, reply *TrainReply) error {
	if err := m.inner.Train(req, reply); err != nil {
		return err
	}
	switch m.lie {
	case "future round":
		reply.Round = req.Round + 5
	case "another id":
		reply.ParticipantID = 0
	case "short grads":
		reply.Grads = reply.Grads[:len(reply.Grads)-1]
	}
	return nil
}

// One peer's malformed answer is that peer's problem: the reply is dropped
// and counted, the other participants' rounds go on, and Run returns no
// error. (Before replies were stamped from the request, a future round or a
// short gradient list ended the whole search with an error, and a borrowed id
// cleared another participant's in-flight bit.)
func TestMisbehavingPeerRepliesAreDropped(t *testing.T) {
	for _, lie := range []string{"future round", "another id", "short grads"} {
		t.Run(lie, func(t *testing.T) {
			// Two honest participants, slowed a little so the liar's answer is
			// already queued when theirs close the round.
			addrs, services, stop := startCluster(t, 3, map[int]time.Duration{
				0: 20 * time.Millisecond,
				1: 20 * time.Millisecond,
			})
			defer stop()
			srv := rpc.NewServer()
			if err := srv.RegisterName("Participant", &misbehaving{inner: services[2], lie: lie}); err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return // listener closed
					}
					go srv.ServeConn(conn)
				}
			}()
			addrs[2] = ln.Addr().String()

			cfg := DefaultServerConfig(testNet())
			cfg.Rounds = 4
			cfg.BatchSize = 8
			cfg.Quorum = 0.67 // the two honest replies close a round
			cfg.Transport.Wire = wire.Gob
			s, err := NewServer(cfg, addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			res, err := s.Run()
			if err != nil {
				t.Fatalf("one misbehaving peer ended the run: %v", err)
			}
			if res.RoundsCompleted != cfg.Rounds {
				t.Errorf("completed %d of %d rounds", res.RoundsCompleted, cfg.Rounds)
			}
			if res.FreshReplies != 2*cfg.Rounds {
				t.Errorf("fresh replies %d, want the honest participants' %d", res.FreshReplies, 2*cfg.Rounds)
			}
			if res.LateReplies != 0 {
				t.Errorf("%d late replies merged; the liar's must never be", res.LateReplies)
			}
			if res.DroppedReplies == 0 || res.DroppedReplies > cfg.Rounds {
				t.Errorf("dropped replies %d, want between 1 and %d (one per round the liar answered)",
					res.DroppedReplies, cfg.Rounds)
			}
			for _, st := range s.ParticipantStates() {
				if st.State != StateAlive.String() {
					t.Errorf("participant %d is %s; lying is not a transport failure", st.ID, st.State)
				}
			}
		})
	}
}
