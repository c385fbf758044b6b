package core

// This file implements the collector's flow table: an open-addressing
// hash table with linear probing accelerated by Swiss-table-style group
// probing, backward-shift deletion, and flow records allocated inline
// from never-moving slabs. The built-in map[FlowKey]*FlowState
// it replaced costs a generic hash, a bucket walk, and a heap-pointer
// dereference per sample; here a lookup is one folded-multiply hash
// plus a single 8-slot group probe that resolves in one word-wide
// compare for resident flows, and the hash itself is computed once per
// sample, inline from the decoded frame's bytes, and feeds both the
// probe and any insert. This is the same design pressure NetFlow-style
// collectors face: per-packet flow-record cost dominates, so the table
// is the hot path.
//
// Layout: beside the 8-byte probe slots lives a dense control array of
// one byte per slot — 0x00 for empty, 0x80|tag for occupied, where tag
// is 7 bits of the slot's hash. A probe loads the 8 control
// bytes starting at the home slot as one little-endian word (the array
// carries a 7-byte mirror tail so the load never branches on wrap) and
// matches the tag against all 8 at once with SWAR bit tricks — no slot
// or slab memory is touched until a tag matches — so the common case
// resolves the entire probe chain, match or miss, from a single
// unaligned word. Because occupied control bytes always have the high
// bit set, the classic zero-byte detector is exact for empties (its
// false positives require a 0x01 byte, which the encoding never
// produces); tag matches may rarely be false positives and are rejected
// by the 32-bit hash compare that follows.
//
// Nothing the table keeps per flow holds a Go pointer, so the garbage
// collector never scans the probe array, the records or the lists that
// thread them: with ~200k flows live, scanning them was most of every
// collection's mark work, and each link store paid a write barrier
// while marking ran. A record is named by a ref, a 32-bit table index: a
// slot holds its record's ref, a record its own (self) and its
// neighbours' on the collector's recency list, and the collector's port
// lists hold refs. A ref is the record's slab index, shifted, and its
// byte offset in the slab in 16-byte units: record resolves one with a
// shift, a mask, one load from the slab table and an add, with no
// branch on the record's kind. Ref 0 names no live record: the first
// slab's first record is never handed out. It ends a list, and it is
// the list head the collector's recency list hangs from (head). A ref
// is an index, never an address kept as a uintptr: the race detector's
// pointer checks reject a pointer rebuilt from a stored integer.
//
// Records come in three kinds (flow.go), each in slabs of its own: a
// full FlowState; a mouse, the compact record of a TCP flow sampled
// once; and an extRecord, a FlowState with an extension estimator past
// it. GetOrInsert files a full record; insert files a mouse or an
// extension record, and promote swaps a mouse for a full record in the
// same slot. Lookups return every kind as a *FlowState; a mouse's flags
// carry isMouse, and only its header may be read (flow.go).
//
// Invariants:
//   - slot occupancy is ref != 0 ⇔ ctrl byte has the high bit set;
//     slot.hash caches the low 32 bits of the record's hash (which hold
//     its home slot and its tag) so probes compare 4 bytes before the
//     13-byte key;
//   - probe order is plain linear probing over slots; the control
//     windows slide along that order, so group probing changes the scan
//     width, never the placement;
//   - ctrl[len(slots)+j] mirrors ctrl[j] for j < groupWidth-1; every
//     control write goes through setCtrl to keep the mirror current;
//   - records never move: slabs are fixed-size arrays kept alive for
//     the table's lifetime, so *FlowState pointers handed out (Flow(),
//     the collector's list ends) stay valid until the record is Removed
//     or, for a mouse, promoted;
//   - a live record's self is the ref of the slot naming it; a
//     free-listed record is all zero;
//   - Remove and promote recycle the record through its kind's free
//     list and zero it, so pointers obtained before either must not be
//     retained across it;
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
	// flowSlabSize is how many records one slab holds, of any kind: a
	// whole number of 8 KiB pages at every record size
	// (footprint_test.go), so the allocator rounds nothing up. Slabs
	// never move and are never freed; expiry recycles records through
	// the free lists.
	flowSlabSize = 512
	// A ref is slab<<refOffBits | offset/refUnit, offset the record's
	// byte offset in its slab: 13 bits reach 128 KiB, past the largest
	// slab, and leave 19 bits of slab index, over 200M records.
	refOffBits = 13
	refOffMask = 1<<refOffBits - 1
	refUnit    = 16
	// flowTableMinSlots is the initial probe-array size (power of two).
	flowTableMinSlots = 64

	// groupWidth is the number of control bytes (slots) matched per
	// word-wide probe step.
	groupWidth = 8
	// ctrlEmpty marks an unoccupied slot; occupied slots carry
	// ctrlTag(hash).
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

// ctrlTag returns the control byte for an occupied slot whose hash has
// low word h: occupancy bit plus hash bits 25–31, the top of what a slot
// keeps. The mask-indexing consumes the low bits, so tag and home slot
// stay independent up to 2^25 slots; past that they overlap and the tag
// filters less, while the hash and key compares keep lookups exact.
func ctrlTag(h uint32) uint8 { return 0x80 | uint8(h>>25) }

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
// low bytes (sequential ports, sequential addresses).
func mixFlowHash(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a^hashC1, b^hashC2)
	return hi ^ lo
}

// HashFlowKey hashes a decoded 5-tuple for FlowTable addressing. It is
// bit-identical to the hash ingest computes from the raw frame bytes of
// the same tuple, so key-based query paths (FlowRate, Flow) find records
// inserted from frame bytes.
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

// flowSlot is one probe-array entry: the low 32 bits of the record's
// flow hash and its ref. Empty slots have ref == 0.
type flowSlot struct {
	hash uint32
	ref  uint32
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

	// slabs is the slab table: refs index it, and each entry is the
	// table's one reference to its slab. kinds holds each slab's record
	// kind. free holds, per kind, the refs of its recycled records. The
	// last record of each mouse slab is never handed out: a *FlowState
	// is 64 bytes longer than a mouse, and a pointer converted to one
	// must not reach past the slab (the race detector's pointer checks
	// enforce it).
	slabs []unsafe.Pointer
	kinds []recordKind
	free  [numKinds][]uint32

	// probe, when set, observes the probe length of each insert — a
	// cheap standing proxy for table health that stays off the
	// per-lookup path.
	probe *obs.Histogram
}

// Len returns the number of live records.
func (t *FlowTable) Len() int { return t.count }

// recordKind names a record layout: each slab holds one kind.
type recordKind uint8

const (
	kindFull  recordKind = iota // FlowState
	kindMouse                   // mouseRecord
	kindExt                     // extRecord
	numKinds
)

// recordSize is each kind's size in bytes, a multiple of refUnit.
var recordSize = [numKinds]uintptr{
	kindFull:  unsafe.Sizeof(FlowState{}),
	kindMouse: unsafe.Sizeof(mouseRecord{}),
	kindExt:   unsafe.Sizeof(extRecord{}),
}

// kindOf returns the kind of a live record with the given flags.
func kindOf(flags uint8) recordKind {
	switch {
	case flags&isMouse != 0:
		return kindMouse
	case flags&(extRtx|extPkt) != 0:
		return kindExt
	}
	return kindFull
}

// record returns the record ref names, of any kind, as a *FlowState; a
// mouse comes as the view of its header. ref must name a record of this
// table.
func (t *FlowTable) record(ref uint32) *FlowState {
	return (*FlowState)(unsafe.Add(t.slabs[ref>>refOffBits], ref&refOffMask*refUnit))
}

// head returns the list head: the table's first record, ref 0, which
// is never handed out. The collector threads its recency list through
// it: the head's next is the oldest flow's ref, and the oldest flow's
// prev is 0. Only next is used. The table must have cut a slab.
func (t *FlowTable) head() *FlowState { return t.record(0) }

// at is record, with ref 0 (a list's end) giving nil.
func (t *FlowTable) at(ref uint32) *FlowState {
	if ref == 0 {
		return nil
	}
	return t.record(ref)
}

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
	m := matchZeroBytes(w ^ (ctrlLoBits * uint64(ctrlTag(uint32(h)))))
	for m != 0 {
		if s := t.slots[(i+uint64(bits.TrailingZeros64(m))>>3)&t.mask]; s.hash == uint32(h) {
			f := t.record(s.ref)
			if keyFirstWord(&f.Key) == a && f.Key.SrcPort == sp && f.Key.DstPort == dp && f.Key.Proto == proto {
				return f
			}
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
	tagw := ctrlLoBits * uint64(ctrlTag(uint32(h)))
	i := (h + groupWidth) & mask
	for range (mask + 1) / groupWidth {
		w := binary.LittleEndian.Uint64(t.ctrl[i:])
		m := matchZeroBytes(w ^ tagw)
		for m != 0 {
			if s := t.slots[(i+uint64(bits.TrailingZeros64(m))>>3)&mask]; s.hash == uint32(h) {
				f := t.record(s.ref)
				if keyFirstWord(&f.Key) == a && f.Key.SrcPort == sp && f.Key.DstPort == dp && f.Key.Proto == proto {
					return f
				}
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

// GetOrInsert returns the record for (h, k), creating a full record when
// absent. A created record is zeroed except for Key (and the table's
// internal bookkeeping); the caller initializes the rest. A resident
// mouse is returned as it is, for the caller to promote. h must be
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
	tag := ctrlTag(uint32(h))
	tagw := ctrlLoBits * uint64(tag)
	g := i
	for {
		w := binary.LittleEndian.Uint64(t.ctrl[g:])
		m := matchZeroBytes(w ^ tagw)
		for m != 0 {
			if s := t.slots[(g+uint64(bits.TrailingZeros64(m))>>3)&mask]; s.hash == uint32(h) {
				if f = t.record(s.ref); f.Key == k {
					return f, false
				}
			}
			m &= m - 1
		}
		if e := matchZeroBytes(w); e != 0 {
			ref := t.alloc(kindFull)
			f = t.record(ref)
			f.Key = k
			f.self = ref
			t.fill((g+uint64(bits.TrailingZeros64(e))>>3)&mask, h, ref)
			return f, true
		}
		g = (g + groupWidth) & mask
	}
}

// insert files a new record for (h, k), which must be absent, and
// returns it: zeroed except for Key, self and flags. flags is isMouse
// for a mouse, extRtx or extPkt for an extension record with a zeroed
// estimator. With the key known absent the probe looks for the first
// empty slot only, comparing no keys.
func (t *FlowTable) insert(h uint64, k packet.FlowKey, flags uint8) *FlowState {
	if t.count >= t.growAt {
		t.rehash()
	}
	g := h & t.mask
	for {
		if e := matchZeroBytes(binary.LittleEndian.Uint64(t.ctrl[g:])); e != 0 {
			ref := t.alloc(kindOf(flags))
			f := t.record(ref)
			f.Key = k
			f.self = ref
			f.flags = flags
			t.fill((g+uint64(bits.TrailingZeros64(e))>>3)&t.mask, h, ref)
			return f
		}
		g = (g + groupWidth) & t.mask
	}
}

// fill occupies empty slot idx with ref, a new record of hash h.
func (t *FlowTable) fill(idx, h uint64, ref uint32) {
	t.slots[idx] = flowSlot{hash: uint32(h), ref: ref}
	t.setCtrl(idx, ctrlTag(uint32(h)))
	t.count++
	if t.probe != nil {
		t.probe.Observe(int64((idx - h) & t.mask))
	}
}

// slotOf returns the index of the slot naming f, a live record of this
// table whose key hashes to h.
func (t *FlowTable) slotOf(h uint64, f *FlowState) uint64 {
	i := h & t.mask
	for t.slots[i].ref != f.self {
		i = (i + 1) & t.mask
	}
	return i
}

// promote replaces mouse m, whose key hashes to h, with the full record
// it stands for (mouseRecord.expand), in m's slot, and recycles m. The
// full record keeps m's recency and port-list links: the caller points
// the lists at it. m is zeroed and must not be used afterwards.
func (t *FlowTable) promote(h uint64, m *FlowState) *FlowState {
	i := t.slotOf(h, m)
	ref := t.alloc(kindFull)
	f := t.record(ref)
	asMouse(m).expand(f)
	f.self = ref
	t.slots[i].ref = ref
	t.free[kindMouse] = append(t.free[kindMouse], m.self)
	*asMouse(m) = mouseRecord{}
	return f
}

// Remove deletes f, a record of either kind, from the table,
// backward-shifting the probe chain so no tombstone is left, and
// recycles the record. f must be a live record of this table; it is
// zeroed and must not be used afterwards. The search for f's slot
// starts from the home slot of its key's hash.
func (t *FlowTable) Remove(f *FlowState) {
	mask := t.mask
	i := t.slotOf(HashFlowKey(f.Key), f)
	// Backward shift: any later chain member whose probe distance
	// reaches back to slot i (or earlier) can legally occupy i; pull the
	// first such member up and continue from its slot until a hole. The
	// control byte travels with its slot.
	for {
		j := (i + 1) & mask
		for {
			s := t.slots[j]
			if s.ref == 0 {
				t.slots[i] = flowSlot{}
				t.setCtrl(i, ctrlEmpty)
				t.count--
				kind := kindOf(f.flags)
				t.free[kind] = append(t.free[kind], f.self)
				switch kind {
				case kindMouse:
					*asMouse(f) = mouseRecord{}
				case kindExt:
					*(*extRecord)(unsafe.Pointer(f)) = extRecord{}
				default:
					*f = FlowState{}
				}
				return
			}
			if (j-uint64(s.hash))&mask >= (j-i)&mask {
				t.slots[i] = s
				t.setCtrl(i, t.ctrl[j])
				i = j
				break
			}
			j = (j + 1) & mask
		}
	}
}

// alloc hands out the ref of a zeroed record of the given kind from
// its free list, cutting a new slab when the list is empty. Records
// never move once allocated.
func (t *FlowTable) alloc(kind recordKind) uint32 {
	if n := len(t.free[kind]); n > 0 {
		ref := t.free[kind][n-1]
		t.free[kind] = t.free[kind][:n-1]
		return ref
	}
	return t.cut(kind)
}

// cut adds a slab of the given kind to the slab table, free-lists its
// records but the first, and returns the first's ref; refs go out in
// slab order. Each mouse slab's last record stays unused (see
// FlowTable.slabs), and the table's first record is ref 0, which names
// none.
func (t *FlowTable) cut(kind recordKind) uint32 {
	var base unsafe.Pointer
	switch kind {
	case kindMouse:
		base = unsafe.Pointer(new([flowSlabSize]mouseRecord))
	case kindExt:
		base = unsafe.Pointer(new([flowSlabSize]extRecord))
	default:
		base = unsafe.Pointer(new([flowSlabSize]FlowState))
	}
	t.slabs = append(t.slabs, base)
	t.kinds = append(t.kinds, kind)
	first, n := uint32(0), uint32(flowSlabSize)
	if kind == kindMouse {
		n--
	}
	if len(t.slabs) == 1 {
		first = 1
	}
	stride := uint32(recordSize[kind] / refUnit)
	ref0 := uint32(len(t.slabs)-1) << refOffBits
	for i := n - 1; i > first; i-- {
		t.free[kind] = append(t.free[kind], ref0|i*stride)
	}
	return ref0 | first*stride
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
		if s.ref == 0 {
			continue
		}
		i := uint64(s.hash) & mask
		for slots[i].ref != 0 {
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
		if s.ref == 0 {
			continue
		}
		d := int((uint64(j) - uint64(s.hash)) & t.mask)
		total += uint64(d)
		if d > max {
			max = d
		}
	}
	return float64(total) / float64(t.count), max
}
