package routing

import (
	"sync"
	"sync/atomic"

	"planck/internal/topo"
	"planck/internal/units"
)

// HistoryDepth bounds how many past epochs a Store retains for
// timestamp-based resolution. Reroutes settle within ~10 ms and
// collector batches span tens of microseconds, so a sample almost
// always lands in the newest or second-newest epoch; eight covers a
// burst of back-to-back reroutes with margin.
const HistoryDepth = 8

// beginningOfTime predates every simulated timestamp so the seed
// snapshot governs all samples until the first real commit activates.
const beginningOfTime = units.Time(-1 << 62)

// history is the immutable published state: snapshots newest-first.
// Readers grab the whole ring with one atomic load, so a single pin
// yields a consistent epoch sequence for an entire batch.
type history struct {
	snaps []*Snapshot
}

// at returns the snapshot that was live at time t: the newest snapshot
// whose activation is not after t, or the oldest retained epoch if t
// predates the ring. The common case (t in the current epoch) is one
// comparison.
func (h *history) at(t units.Time) *Snapshot {
	for _, s := range h.snaps {
		if t >= s.since {
			return s
		}
	}
	return h.snaps[len(h.snaps)-1]
}

// Store publishes epoch-versioned routing snapshots. Reads (Load, At,
// View resolution) are lock-free: one atomic pointer load. Writes go
// through Commit, which serializes under a mutex, builds the next
// snapshot copy-on-write, and publishes it with a monotone epoch.
type Store struct {
	net *topo.Network

	mu  sync.Mutex // serializes Commit
	cur atomic.Pointer[history]

	// epoch mirrors cur's head epoch as a bare counter, stored strictly
	// after cur on Commit. Collectors poll it through View.EpochRef on
	// every Ingest — one inlined atomic load — and only pay for a full
	// Refresh when it moves.
	epoch atomic.Uint64
}

// NewStore builds a store over net, seeded with epoch 0: base tree 0
// for every host, no overrides, mirroring off, active since the
// beginning of time.
func NewStore(net *topo.Network) *Store {
	st := &Store{net: net}
	seed := &Snapshot{
		epoch: 0,
		since: beginningOfTime,
		net:   net,
		trees: make([]int, net.NumHosts()),
	}
	st.cur.Store(&history{snaps: []*Snapshot{seed}})
	return st
}

// Net exposes the static topology the store routes over.
func (s *Store) Net() *topo.Network { return s.net }

// Load returns the current snapshot (lock-free).
func (s *Store) Load() *Snapshot { return s.cur.Load().snaps[0] }

// Epoch returns the current epoch number (lock-free).
func (s *Store) Epoch() uint64 { return s.Load().epoch }

// Commit builds the next snapshot by applying mutate to a copy-on-write
// clone of the current one, stamps it with the next epoch, and
// publishes it as active from time at. Activation times are clamped
// monotone: a commit can never activate before its predecessor, so the
// history ring stays ordered and timestamp resolution stays total.
// Commit is the single-writer path; concurrent commits serialize.
func (s *Store) Commit(at units.Time, mutate func(*Tx)) *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()

	h := s.cur.Load()
	prev := h.snaps[0]
	next := *prev // shallow clone: maps are shared until a Tx setter copies them
	tx := &Tx{snap: &next}
	if mutate != nil {
		mutate(tx)
	}
	next.epoch = prev.epoch + 1
	next.since = at
	if next.since < prev.since {
		next.since = prev.since
	}

	snaps := make([]*Snapshot, 0, HistoryDepth)
	snaps = append(snaps, &next)
	snaps = append(snaps, h.snaps...)
	if len(snaps) > HistoryDepth {
		snaps = snaps[:HistoryDepth]
	}
	s.cur.Store(&history{snaps: snaps})
	// Publish the epoch only after the history it names is visible: an
	// EpochRef poller that sees next.epoch is guaranteed a subsequent
	// cur.Load observes this (or a later) commit.
	s.epoch.Store(next.epoch)
	return &next
}

// Actuator is the data-plane half of the control loop: it pushes a
// freshly committed snapshot (or a diff of one) into whatever realizes
// the routes — the simulated switches and hosts here, a real OpenFlow
// driver in a deployment. Keeping the Controller behind this interface
// decouples it from concrete sim types.
type Actuator interface {
	// InstallSnapshot programs the full routing state of snap: MAC
	// tables, egress rewrites, mirror sessions, and host ARP caches.
	InstallSnapshot(snap *Snapshot)
	// Apply actuates one diff entry at time fire: a spoofed ARP for
	// ChangePairTree, a dst-MAC rewrite flow rule for ChangeFlowTree.
	Apply(fire units.Time, ch Change)
}
