package rpcfed

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Registry is the server-side participant roster. Enrolling a participant
// costs one stub (id, address, lifecycle state) — no connection, no model
// state — so a server can register thousands of endpoints as cheaply as
// ten. Connections are established eagerly at startup by default, or on
// first dispatch under Transport.LazyDial, so with per-round cohort
// sampling only participants that have actually been sampled ever hold a
// dialed connection.
type Registry struct {
	peers []*peer
}

// newRegistry enrolls one undialed peer stub per address.
func newRegistry(addrs []string) *Registry {
	r := &Registry{peers: make([]*peer, len(addrs))}
	for i, addr := range addrs {
		r.peers[i] = &peer{id: i, addr: addr}
	}
	return r
}

// Len returns the enrolled participant count.
func (r *Registry) Len() int { return len(r.peers) }

// StateCounts tallies peers by lifecycle state.
func (r *Registry) StateCounts() (alive, suspect, dead int) {
	for _, p := range r.peers {
		switch p.State() {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		}
	}
	return alive, suspect, dead
}

// Connected counts peers currently holding a dialed connection — the
// registry's memory-model observable: under lazy dialing it tracks cohort
// coverage, not enrollment.
func (r *Registry) Connected() int {
	n := 0
	for _, p := range r.peers {
		p.mu.Lock()
		if p.client != nil {
			n++
		}
		p.mu.Unlock()
	}
	return n
}

// Statuses snapshots the half-open status range [lo, hi) in id order
// (bounds are clamped).
func (r *Registry) Statuses(lo, hi int) []ParticipantStatus {
	if lo < 0 {
		lo = 0
	}
	if hi > len(r.peers) {
		hi = len(r.peers)
	}
	if lo >= hi {
		return nil
	}
	out := make([]ParticipantStatus, 0, hi-lo)
	for _, p := range r.peers[lo:hi] {
		p.mu.Lock()
		out = append(out, ParticipantStatus{
			ID:       p.id,
			Addr:     p.addr,
			State:    p.state.String(),
			Failures: p.failures,
		})
		p.mu.Unlock()
	}
	return out
}

// participantsPageLimit is the default (and maximum) page size the
// /participants endpoint serves when asked for per-participant detail.
const participantsPageLimit = 256

// smallPopulation is the enrollment size up to which /participants keeps
// inlining the full per-participant list by default, preserving the
// pre-population dashboard behavior at dashboard-sized K.
const smallPopulation = 32

// ParticipantsSummary is the scale-safe /participants payload: aggregate
// state counts plus the current round's sampled cohort, with the
// per-participant list included only at small K or on explicit request.
type ParticipantsSummary struct {
	Enrolled   int   `json:"enrolled"`
	CohortSize int   `json:"cohort_size"`
	Round      int   `json:"round"`
	Cohort     []int `json:"cohort"`
	Alive      int   `json:"alive"`
	Suspect    int   `json:"suspect"`
	Dead       int   `json:"dead"`
	Connected  int   `json:"connected"`

	// Participants is the detail page (everyone at K <= 32 or with ?all=1,
	// a slice with ?offset=&limit= otherwise). Offset/Total locate the
	// page within the roster.
	Participants []ParticipantStatus `json:"participants,omitempty"`
	Offset       int                 `json:"offset"`
	Total        int                 `json:"total"`
}

// ParticipantsSummary builds the aggregate roster snapshot: counts, the
// current round's cohort, and — at small K — the full status list.
func (s *Server) ParticipantsSummary() ParticipantsSummary {
	round := int(s.curRound.Load())
	alive, suspect, dead := s.reg.StateCounts()
	sum := ParticipantsSummary{
		Enrolled:   s.reg.Len(),
		CohortSize: s.core.Sampler().Size(),
		Round:      round,
		Cohort:     s.core.Sampler().Cohort(round),
		Alive:      alive,
		Suspect:    suspect,
		Dead:       dead,
		Connected:  s.reg.Connected(),
		Total:      s.reg.Len(),
	}
	if s.reg.Len() <= smallPopulation {
		sum.Participants = s.reg.Statuses(0, s.reg.Len())
	}
	return sum
}

// ParticipantStates snapshots every participant's lifecycle state. It is
// the legacy full-roster accessor; at large K prefer ParticipantsSummary
// (counts) or Registry.Statuses (a page).
func (s *Server) ParticipantStates() []ParticipantStatus {
	return s.reg.Statuses(0, s.reg.Len())
}

// Registry exposes the participant roster.
func (s *Server) Registry() *Registry { return s.reg }

// ParticipantsHandler serves the /participants debug endpoint. By default
// it returns the aggregate summary (plus the full list when K <= 32);
// ?all=1 forces the full list regardless of K, and ?offset=N&limit=M pages
// through the roster (limit capped at 256).
func (s *Server) ParticipantsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sum := s.ParticipantsSummary()
		q := req.URL.Query()
		switch {
		case q.Get("all") == "1":
			sum.Participants = s.reg.Statuses(0, s.reg.Len())
		case q.Has("offset") || q.Has("limit"):
			offset, _ := strconv.Atoi(q.Get("offset"))
			limit, err := strconv.Atoi(q.Get("limit"))
			if err != nil || limit <= 0 || limit > participantsPageLimit {
				limit = participantsPageLimit
			}
			if offset < 0 {
				offset = 0
			}
			sum.Offset = offset
			sum.Participants = s.reg.Statuses(offset, offset+limit)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
