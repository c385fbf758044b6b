package core

// This file implements the collector's flow table: an open-addressing
// hash table with linear probing accelerated by Swiss-table-style group
// probing, backward-shift deletion, and FlowState records allocated
// inline from never-moving slabs. The built-in map[FlowKey]*FlowState
// it replaced costs a generic hash, a bucket walk, and a heap-pointer
// dereference per sample; here a lookup is one folded-multiply hash
// plus a single 8-slot group probe that resolves in one word-wide
// compare for resident flows, and the hash itself is computed once per
// sample and shared between IngestBatch's prefetch pass and the probe
// (see flowHash). This is the same design pressure NetFlow-style
// collectors face: per-packet flow-record cost dominates, so the table
// is the hot path.
//
// Layout: beside the 16-byte probe slots lives a dense control array of
// one byte per slot — 0x00 for empty, 0x80|tag for occupied, where tag
// is the top 7 bits of the slot's hash. A probe loads the 8 control
// bytes starting at the home slot as one little-endian word (the array
// carries a 7-byte mirror tail so the load never branches on wrap) and
// matches the tag against all 8 at once with SWAR bit tricks — no slot
// or slab memory is touched until a tag matches — so the common case
// resolves the entire probe chain, match or miss, from a single
// unaligned word. Because occupied control bytes always have the high
// bit set, the classic zero-byte detector is exact for empties (its
// false positives require a 0x01 byte, which the encoding never
// produces); tag matches may rarely be false positives and are rejected
// by the 8-byte hash compare that follows.
//
// Invariants:
//   - slot occupancy is f != nil ⇔ ctrl byte has the high bit set;
//     slot.hash caches the record's hash so probes compare 8 bytes
//     before the 13-byte key;
//   - probe order is plain linear probing over slots; the control
//     windows slide along that order, so group probing changes the scan
//     width, never the placement;
//   - ctrl[len(slots)+j] mirrors ctrl[j] for j < groupWidth-1; every
//     control write goes through setCtrl to keep the mirror current;
//   - records never move: slabs are fixed-size arrays kept alive for
//     the table's lifetime, so *FlowState pointers handed out (port
//     lists, Flow()) stay valid until the record is Removed;
//   - Remove recycles the record through a free list and zeroes it, so
//     pointers obtained before a Remove must not be retained across it;
//   - deletion backward-shifts the probe chain (no tombstones), so
//     probe lengths never degrade as flows churn.

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"planck/internal/obs"
	"planck/internal/packet"
)

const (
	// flowSlabSize is how many FlowState records one slab holds. Slabs
	// never move and are never freed; expiry recycles records through
	// the free list.
	flowSlabSize = 256
	// flowTableMinSlots is the initial probe-array size (power of two).
	flowTableMinSlots = 64

	// groupWidth is the number of control bytes (slots) matched per
	// word-wide probe step.
	groupWidth = 8
	// ctrlEmpty marks an unoccupied slot; occupied slots carry
	// 0x80 | (hash >> 57).
	ctrlEmpty = 0x00

	// SWAR constants: ctrlLoBits broadcasts a byte across a word,
	// ctrlHiBits isolates each byte's high bit.
	ctrlLoBits = 0x0101010101010101
	ctrlHiBits = 0x8080808080808080
)

// Odd 64-bit mixing constants (golden ratio and a Murmur3/xxhash
// derivative) seeding the two-word folded-multiply flow hash.
const (
	hashC1 = 0x9e3779b97f4a7c15
	hashC2 = 0xc2b2ae3d27d4eb4f
)

// ctrlTag returns the control byte for an occupied slot holding hash h:
// occupancy bit plus the top 7 hash bits. The mask-indexing consumes
// the low bits, so tag and home slot stay independent.
func ctrlTag(h uint64) uint8 { return 0x80 | uint8(h>>57) }

// matchZeroBytes returns a word with 0x80 set in every byte of w that
// is zero. Exact when w's nonzero bytes all have their high bit set
// (the control-array empty scan); when w is a XOR against a broadcast
// tag, bytes above a zero byte can false-positive — callers reject
// those with the slot's full hash compare.
func matchZeroBytes(w uint64) uint64 {
	return (w - ctrlLoBits) &^ w & ctrlHiBits
}

// mixFlowHash combines the two packed words of a 5-tuple with one
// folded 64×64→128 multiply (the wyhash/xxh3 mixing core): both seeded
// operands feed a widening multiply whose halves are XORed, giving full
// avalanche — the table's mask-indexing and the control tag's top bits
// both see well-mixed bits even for flow populations with correlated
// low bytes (sequential ports, sequential addresses). The result is never zero: zero is reserved as the "hash
// not precomputed" sentinel carried through the batch pipeline.
func mixFlowHash(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a^hashC1, b^hashC2)
	h := hi ^ lo
	if h == 0 {
		h = hashC1
	}
	return h
}

// HashFlowKey hashes a decoded 5-tuple for FlowTable addressing. It is
// bit-identical to flowHash over the raw frame bytes of the same tuple,
// so key-based query paths (FlowRate, Flow) find records inserted from
// frame bytes.
//
// The address word is read with one unsafe 8-byte load of the key's
// first two fields (SrcIP and DstIP are adjacent wire-order byte
// arrays at offset 0, fixed by layout) rather than per-field byte
// assembly: the load exactly matches the first word store of the
// caller's key copy, so it store-forwards instead of stalling, and the
// frame-side twin reads the same bytes with NativeEndian so both sides
// agree on every platform. The ports/proto word comes from plain field
// reads, all contained in the copy's second word store.
func HashFlowKey(k packet.FlowKey) uint64 {
	return mixFlowHash(
		*(*uint64)(unsafe.Pointer(&k)),
		uint64(k.SrcPort)<<24|uint64(k.DstPort)<<8|uint64(k.Proto))
}

// flowHash computes the same hash as HashFlowKey straight from raw
// frame bytes, without a full decode — IngestBatch's per-sample
// prefetch peek. ok is false when the frame carries no recognizable
// IPv4 TCP/UDP transport flow (such frames hold no flow-table state).
func flowHash(frame []byte) (uint64, bool) {
	if len(frame) < packet.EthernetHeaderLen+packet.IPv4MinHeaderLen {
		return 0, false
	}
	if frame[12] != 0x08 || frame[13] != 0x00 {
		return 0, false
	}
	ip := frame[packet.EthernetHeaderLen:]
	if ip[0]>>4 != 4 {
		return 0, false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < packet.IPv4MinHeaderLen || len(ip) < ihl+4 {
		return 0, false
	}
	proto := ip[9]
	if proto != uint8(packet.IPProtocolTCP) && proto != uint8(packet.IPProtocolUDP) {
		return 0, false
	}
	// Native-order read of src ‖ dst — the same bytes HashFlowKey loads
	// from the key struct, interpreted identically.
	a := binary.NativeEndian.Uint64(ip[12:20])
	sp := uint64(ip[ihl])<<8 | uint64(ip[ihl+1])
	dp := uint64(ip[ihl+2])<<8 | uint64(ip[ihl+3])
	return mixFlowHash(a, sp<<24|dp<<8|uint64(proto)), true
}

// flowSlot is one probe-array entry: the record's cached hash plus the
// pointer into its slab. Empty slots have f == nil.
type flowSlot struct {
	hash uint64
	f    *FlowState
}

// FlowTable is the open-addressed flow-record store. The zero value is
// ready to use; it is not safe for concurrent mutation (each collector
// goroutine owns one).
type FlowTable struct {
	// ctrl is the control array: one tag byte per slot, probed
	// word-at-a-time before any slot is touched. A probe loads the
	// 8-byte window starting at the home slot itself (unaligned), so
	// len(ctrl) == len(slots) + groupWidth - 1: the tail mirrors the
	// first groupWidth-1 bytes so a window starting near the end of the
	// ring reads the wrapped slots without branching. The zero byte
	// means empty, so a fresh array needs no initialization.
	ctrl   []uint8
	slots  []flowSlot
	mask   uint64
	growAt int // count at which the probe array doubles (~75% load)
	count  int

	slabs [][]FlowState
	free  []*FlowState

	// probe, when set, observes the probe length of each insert — a
	// cheap standing proxy for table health that stays off the
	// per-lookup path.
	probe *obs.Histogram
}

// Len returns the number of live records.
func (t *FlowTable) Len() int { return t.count }

// keyFirstWord reads the first 8 bytes of a resident FlowKey (SrcIP ‖
// DstIP) as one native-order machine word. Callers compare it against a
// word built by the same native-order read of the corresponding frame
// or key bytes, so the interpretation cancels out on any endianness.
func keyFirstWord(k *packet.FlowKey) uint64 {
	return *(*uint64)(unsafe.Pointer(k))
}

// setCtrl writes one control byte and keeps the wrap mirror current.
func (t *FlowTable) setCtrl(i uint64, v uint8) {
	t.ctrl[i] = v
	if i < groupWidth-1 {
		t.ctrl[i+t.mask+1] = v
	}
}

// Lookup returns the record for (h, k), or nil. h must be HashFlowKey(k).
func (t *FlowTable) Lookup(h uint64, k packet.FlowKey) *FlowState {
	return t.LookupScalar(h, keyFirstWord(&k), k.SrcPort, k.DstPort, k.Proto)
}

// LookupScalar is Lookup with the key pre-split into probe scalars: the
// SrcIP‖DstIP word (as read by keyFirstWord, or the identical
// native-order load of the frame's address bytes) plus the transport
// fields. The ingest hot path uses it to probe without ever
// materialising a FlowKey — a freshly assembled 16-byte key is read
// back as two words by the compare and stalls on store-to-load
// forwarding, while these five scalars stay in registers.
//
// The window load starts at the home slot itself, so the word holds the
// first 8 slots of the probe chain in probe order: every candidate is
// checked (false tags are rejected by the hash/key compare — a matched
// slot past the chain's first empty can never hold the key, by the
// insert invariant, so order does not matter), and an empty byte
// anywhere in the window proves the chain ends inside it. Only a chain
// of 8+ consecutive occupied slots — vanishingly rare below the ~75%
// load ceiling — falls to lookupCold.
func (t *FlowTable) LookupScalar(h, a uint64, sp, dp uint16, proto packet.IPProtocol) *FlowState {
	if t.count == 0 {
		return nil
	}
	i := h & t.mask
	w := binary.LittleEndian.Uint64(t.ctrl[i:])
	m := matchZeroBytes(w ^ (ctrlLoBits * uint64(ctrlTag(h))))
	for m != 0 {
		s := &t.slots[(i+uint64(bits.TrailingZeros64(m))>>3)&t.mask]
		f := s.f
		if s.hash == h && keyFirstWord(&f.Key) == a &&
			f.Key.SrcPort == sp && f.Key.DstPort == dp && f.Key.Proto == proto {
			return f
		}
		m &= m - 1
	}
	if matchZeroBytes(w) != 0 {
		return nil // empty slot in the window: the chain ends here
	}
	return t.lookupCold(h, a, sp, dp, proto)
}

// lookupCold continues LookupScalar past its home window: the chain's
// first 8 slots held no match and no empty, so walk the following
// windows until one resolves. Starting one window past home re-checks
// nothing the fast path already rejected.
func (t *FlowTable) lookupCold(h, a uint64, sp, dp uint16, proto packet.IPProtocol) *FlowState {
	mask := t.mask
	tagw := ctrlLoBits * uint64(ctrlTag(h))
	i := (h + groupWidth) & mask
	for range (mask + 1) / groupWidth {
		w := binary.LittleEndian.Uint64(t.ctrl[i:])
		m := matchZeroBytes(w ^ tagw)
		for m != 0 {
			s := &t.slots[(i+uint64(bits.TrailingZeros64(m))>>3)&mask]
			f := s.f
			if s.hash == h && keyFirstWord(&f.Key) == a &&
				f.Key.SrcPort == sp && f.Key.DstPort == dp && f.Key.Proto == proto {
				return f
			}
			m &= m - 1
		}
		if matchZeroBytes(w) != 0 {
			return nil // empty slot on the chain: the key is absent
		}
		i = (i + groupWidth) & mask
	}
	return nil
}

// probeFirst warms the probe path for h and returns the home group's
// first tag candidate (with its cached slot hash), or nil. One call
// touches exactly the memory a subsequent Lookup of the same hash needs
// — the control word, the candidate slot, and the candidate record's
// key line — so a batch of 8 probeFirst calls pipelines up to 24 cache
// misses that a serial Lookup loop would take back to back. The caller
// must still verify the candidate (slot hash == h and key match): the
// tag is 7 bits and only the first candidate is returned.
func (t *FlowTable) probeFirst(h uint64) (f *FlowState, slotHash uint64, key packet.FlowKey) {
	if t.count == 0 {
		return nil, 0, key
	}
	i := h & t.mask
	diff := binary.LittleEndian.Uint64(t.ctrl[i:]) ^ (ctrlLoBits * uint64(ctrlTag(h)))
	if m := matchZeroBytes(diff); m != 0 {
		s := &t.slots[(i+uint64(bits.TrailingZeros64(m))>>3)&t.mask]
		// Reading the key here pulls the slab record's first cache line
		// — the line Lookup's key compare and ingest's field updates hit.
		return s.f, s.hash, s.f.Key
	}
	return nil, 0, key
}

// LookupBatch resolves keys[i] (hashed as hs[i]) into out[i] for
// i < min(len(hs), len(keys), len(out)), equivalent to calling Lookup
// element-wise, and returns how many elements it resolved. It processes
// groupWidth keys at a time in two passes — probe all control groups
// and candidate records first, then verify — so the cache misses of a
// decoded batch overlap instead of serializing. Mutating the table
// between the call and use of the results follows the same rules as
// Lookup.
func (t *FlowTable) LookupBatch(hs []uint64, keys []packet.FlowKey, out []*FlowState) int {
	n := min(len(hs), len(keys), len(out))
	var (
		cand  [groupWidth]*FlowState
		cHash [groupWidth]uint64
		cKey  [groupWidth]packet.FlowKey
	)
	for base := 0; base < n; base += groupWidth {
		m := min(groupWidth, n-base)
		for j := range m {
			cand[j], cHash[j], cKey[j] = t.probeFirst(hs[base+j])
		}
		for j := range m {
			h, k := hs[base+j], keys[base+j]
			if f := cand[j]; f != nil && cHash[j] == h && cKey[j] == k {
				out[base+j] = f
			} else {
				// The warmed first candidate missed. Re-run the full probe
				// from the home window: the key may still live behind a
				// colliding tag in the same window, so skipping straight to
				// the cold continuation would lose it.
				out[base+j] = t.LookupScalar(h, keyFirstWord(&k), k.SrcPort, k.DstPort, k.Proto)
			}
		}
	}
	return n
}

// GetOrInsert returns the record for (h, k), creating it when absent.
// A created record is zeroed except for Key (and the table's internal
// bookkeeping); the caller initializes the rest. h must be
// HashFlowKey(k). Insertion takes the first empty slot in linear-probe
// order from the home slot — found a group at a time via the empty
// mask — so placement is identical to a plain linear-probe table and
// backward-shift deletion's distance arithmetic stays valid.
func (t *FlowTable) GetOrInsert(h uint64, k packet.FlowKey) (f *FlowState, inserted bool) {
	if t.count >= t.growAt {
		t.rehash()
	}
	mask := t.mask
	i := h & mask
	tag := ctrlTag(h)
	tagw := ctrlLoBits * uint64(tag)
	g := i
	for {
		w := binary.LittleEndian.Uint64(t.ctrl[g:])
		m := matchZeroBytes(w ^ tagw)
		for m != 0 {
			s := &t.slots[(g+uint64(bits.TrailingZeros64(m))>>3)&mask]
			if s.hash == h && s.f.Key == k {
				return s.f, false
			}
			m &= m - 1
		}
		if e := matchZeroBytes(w); e != 0 {
			idx := (g + uint64(bits.TrailingZeros64(e))>>3) & mask
			f = t.alloc()
			f.Key = k
			f.hash = h
			f.live = true
			t.slots[idx] = flowSlot{hash: h, f: f}
			t.setCtrl(idx, tag)
			t.count++
			if t.probe != nil {
				t.probe.Observe(int64((idx - i) & mask))
			}
			return f, true
		}
		g = (g + groupWidth) & mask
	}
}

// Remove deletes f from the table, backward-shifting the probe chain so
// no tombstone is left, and recycles the record. f must be a live
// record of this table; it is zeroed and must not be used afterwards.
func (t *FlowTable) Remove(f *FlowState) {
	mask := t.mask
	i := f.hash & mask
	for t.slots[i].f != f {
		i = (i + 1) & mask
	}
	// Backward shift: any later chain member whose probe distance
	// reaches back to slot i (or earlier) can legally occupy i; pull the
	// first such member up and continue from its slot until a hole. The
	// control byte travels with its slot.
	for {
		j := (i + 1) & mask
		for {
			s := t.slots[j]
			if s.f == nil {
				t.slots[i] = flowSlot{}
				t.setCtrl(i, ctrlEmpty)
				t.count--
				*f = FlowState{}
				t.free = append(t.free, f)
				return
			}
			if (j-s.hash)&mask >= (j-i)&mask {
				t.slots[i] = s
				t.setCtrl(i, t.ctrl[j])
				i = j
				break
			}
			j = (j + 1) & mask
		}
	}
}

// Iterate calls fn for every live record, in slab (insertion-slot)
// order. Removing records during iteration — including the current one
// — is safe: iteration walks the never-moving slabs, not the probe
// array. Inserting during iteration is not.
func (t *FlowTable) Iterate(fn func(*FlowState)) {
	for _, slab := range t.slabs {
		for i := range slab {
			if slab[i].live {
				fn(&slab[i])
			}
		}
	}
}

// alloc hands out a zeroed record from the free list, cutting a new
// slab when empty. Records never move once allocated.
func (t *FlowTable) alloc() *FlowState {
	if n := len(t.free); n > 0 {
		f := t.free[n-1]
		t.free = t.free[:n-1]
		return f
	}
	slab := make([]FlowState, flowSlabSize)
	t.slabs = append(t.slabs, slab)
	for i := flowSlabSize - 1; i > 0; i-- {
		t.free = append(t.free, &slab[i])
	}
	return &slab[0]
}

// rehash doubles the probe array (or cuts the initial one) and
// reinserts every live slot, rebuilding the control array beside it.
// Records themselves do not move.
func (t *FlowTable) rehash() {
	n := uint64(len(t.slots)) * 2
	if n == 0 {
		n = flowTableMinSlots
	}
	slots := make([]flowSlot, n)
	// groupWidth-1 extra bytes mirror the array's head so unaligned
	// window loads starting near the end read the wrapped slots.
	ctrl := make([]uint8, n+groupWidth-1) // zero value == all empty
	mask := n - 1
	for _, s := range t.slots {
		if s.f == nil {
			continue
		}
		i := s.hash & mask
		for slots[i].f != nil {
			i = (i + 1) & mask
		}
		slots[i] = s
		ctrl[i] = ctrlTag(s.hash)
	}
	copy(ctrl[n:], ctrl[:groupWidth-1])
	t.slots = slots
	t.ctrl = ctrl
	t.mask = mask
	t.growAt = int(n - n/4)
}

// ProbeStats scans the probe array and returns the mean and maximum
// probe length a Lookup of each live record would take right now — an
// on-demand health check that costs nothing on the ingest path.
func (t *FlowTable) ProbeStats() (mean float64, max int) {
	if t.count == 0 {
		return 0, 0
	}
	var total uint64
	for j := range t.slots {
		s := t.slots[j]
		if s.f == nil {
			continue
		}
		d := int((uint64(j) - s.hash) & t.mask)
		total += uint64(d)
		if d > max {
			max = d
		}
	}
	return float64(total) / float64(t.count), max
}
