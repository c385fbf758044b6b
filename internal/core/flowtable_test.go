package core

import (
	"math/rand"
	"sort"
	"testing"

	"planck/internal/packet"
	"planck/internal/units"
)

// ftKey draws from a deliberately small key space (~2k distinct keys)
// so a long random op sequence revisits keys constantly: re-finds,
// remove-then-reinsert, and enough live flows to force several table
// growths past the initial 64 slots.
func ftKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   packet.IPv4{10, 0, 0, byte(rng.Intn(8))},
		DstIP:   packet.IPv4{10, 0, 1, byte(rng.Intn(4))},
		SrcPort: uint16(rng.Intn(64)),
		DstPort: uint16(2000 + rng.Intn(2)),
		Proto:   packet.IPProtocolTCP,
	}
}

// checkCtrlInvariants asserts the Swiss-table control array's standing
// invariants against the slot array it summarizes: every empty slot's
// byte is ctrlEmpty and every occupied slot's byte is exactly
// ctrlTag(hash) (occupancy bit + top-7 tag); the live count matches;
// and the wrap-mirror tail equals the first groupWidth-1 head bytes, so
// unaligned windows read wrapped slots correctly.
func checkCtrlInvariants(t *testing.T, tab *FlowTable) {
	t.Helper()
	if tab.slots == nil {
		if tab.count != 0 {
			t.Fatalf("ctrl invariant: no slots but count %d", tab.count)
		}
		return
	}
	n := uint64(len(tab.slots))
	if uint64(len(tab.ctrl)) != n+groupWidth-1 {
		t.Fatalf("ctrl invariant: len(ctrl) %d, want %d slots + %d mirror", len(tab.ctrl), n, groupWidth-1)
	}
	live := 0
	for i := range tab.slots {
		s := &tab.slots[i]
		c := tab.ctrl[i]
		if s.ref == 0 {
			if c != ctrlEmpty {
				t.Fatalf("ctrl invariant: slot %d empty but ctrl %#02x", i, c)
			}
			continue
		}
		live++
		if want := ctrlTag(s.hash); c != want {
			t.Fatalf("ctrl invariant: slot %d ctrl %#02x, want tag %#02x of hash %#x", i, c, want, s.hash)
		}
	}
	if live != tab.count {
		t.Fatalf("ctrl invariant: %d occupied slots, count %d", live, tab.count)
	}
	for j := uint64(0); j < groupWidth-1; j++ {
		if tab.ctrl[n+j] != tab.ctrl[j] {
			t.Fatalf("ctrl invariant: mirror byte %d is %#02x, head byte is %#02x", j, tab.ctrl[n+j], tab.ctrl[j])
		}
	}
}

// TestFlowTableDifferential drives FlowTable and a plain
// map[FlowKey]*FlowState oracle through the same randomized op stream —
// insert, lookup (hit and miss), remove, full iteration — and demands
// they agree after every step: same membership, same record pointers
// (slab records must never move), same length.
func TestFlowTableDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		rng := rand.New(rand.NewSource(seed))
		var tab FlowTable
		oracle := map[packet.FlowKey]*FlowState{}
		var live []packet.FlowKey
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(100); {
			case r < 50: // insert, or re-find when live
				k := ftKey(rng)
				h := HashFlowKey(k)
				f, inserted := tab.GetOrInsert(h, k)
				if f == nil || f.Key != k {
					t.Fatalf("seed %d op %d: GetOrInsert(%v) returned record for %v", seed, op, k, f.Key)
				}
				if of, ok := oracle[k]; ok {
					if inserted {
						t.Fatalf("seed %d op %d: re-inserted live key %v", seed, op, k)
					}
					if of != f {
						t.Fatalf("seed %d op %d: record for %v moved: %p != %p", seed, op, k, f, of)
					}
				} else {
					if !inserted {
						t.Fatalf("seed %d op %d: GetOrInsert(%v) found a record the oracle lacks", seed, op, k)
					}
					f.SampledPackets = int64(op) // payload marker, checked at iteration
					oracle[k] = f
					live = append(live, k)
				}
			case r < 75: // lookup, often a miss
				k := ftKey(rng)
				f := tab.Lookup(HashFlowKey(k), k)
				if of := oracle[k]; f != of {
					t.Fatalf("seed %d op %d: Lookup(%v) = %p, oracle %p", seed, op, k, f, of)
				}
			case r < 95: // remove a random live record
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				k := live[i]
				tab.Remove(oracle[k])
				delete(oracle, k)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if tab.Lookup(HashFlowKey(k), k) != nil {
					t.Fatalf("seed %d op %d: %v still found after Remove", seed, op, k)
				}
			default: // full iteration agrees with the oracle
				seen := make(map[packet.FlowKey]bool, len(oracle))
				tab.Iterate(func(f *FlowState) {
					if seen[f.Key] {
						t.Fatalf("seed %d op %d: Iterate visited %v twice", seed, op, f.Key)
					}
					seen[f.Key] = true
					if oracle[f.Key] != f {
						t.Fatalf("seed %d op %d: Iterate record for %v is not the oracle's", seed, op, f.Key)
					}
				})
				if len(seen) != len(oracle) || tab.Len() != len(oracle) {
					t.Fatalf("seed %d op %d: iterate saw %d, Len %d, oracle %d",
						seed, op, len(seen), tab.Len(), len(oracle))
				}
				checkCtrlInvariants(t, &tab)
			}
		}
		checkCtrlInvariants(t, &tab)
		for k, of := range oracle {
			if tab.Lookup(HashFlowKey(k), k) != of {
				t.Fatalf("seed %d: final sweep lost %v", seed, k)
			}
		}
		if mean, max := tab.ProbeStats(); tab.Len() > 0 && (mean < 0 || max >= len(tab.slots)) {
			t.Fatalf("seed %d: degenerate probe stats mean=%v max=%d", seed, mean, max)
		}
	}
}

// TestFlowTableBackwardShiftWrapAround pins the deletion edge cases the
// differential test only hits probabilistically: probe clusters built
// with hand-picked hashes that collide on low bits and wrap around the
// end of the 64-slot probe array. After every removal, every surviving
// record must remain reachable from its home slot — the invariant
// backward-shift deletion exists to maintain.
func TestFlowTableBackwardShiftWrapAround(t *testing.T) {
	for trial, lows := range [][]uint64{
		{63, 63, 63, 63, 63},      // one cluster wrapping 63 → 0 → …
		{60, 61, 62, 63, 0, 1, 2}, // distinct home slots straddling the wrap
		{62, 62, 0, 0, 62, 1, 63}, // interleaved homes, shifts across the seam
		{0, 0, 0, 63, 63, 63},     // two clusters meeting at the seam
	} {
		var tab FlowTable
		type ent struct {
			h uint64
			k packet.FlowKey
		}
		var ents []ent
		for i, lo := range lows {
			k := packet.FlowKey{
				SrcIP: ipA, DstIP: ipB,
				SrcPort: uint16(100*trial + i), DstPort: 7,
				Proto: packet.IPProtocolTCP,
			}
			// Same low bits under any power-of-two mask ≥ 64 slots; high
			// bits keep the hashes distinct.
			h := lo | uint64(i+1)<<32
			if f, inserted := tab.GetOrInsert(h, k); !inserted || f.Key != k {
				t.Fatalf("trial %d: insert %d: inserted=%v key=%v", trial, i, inserted, f.Key)
			}
			ents = append(ents, ent{h, k})
		}
		for n := 0; len(ents) > 0; n++ {
			i := (n * 3) % len(ents) // rotate removal position through the cluster
			e := ents[i]
			f := tab.Lookup(e.h, e.k)
			if f == nil {
				t.Fatalf("trial %d: %v unreachable before its removal", trial, e.k)
			}
			tab.Remove(f)
			ents = append(ents[:i], ents[i+1:]...)
			if tab.Len() != len(ents) {
				t.Fatalf("trial %d: Len %d after removal, want %d", trial, tab.Len(), len(ents))
			}
			for _, o := range ents {
				if tab.Lookup(o.h, o.k) == nil {
					t.Fatalf("trial %d: removing %v orphaned %v", trial, e.k, o.k)
				}
			}
			checkCtrlInvariants(t, &tab)
		}
	}
}

// TestFlowTableProbeP99UnderChurn holds the probe-length distribution
// to a bound after sustained insert/remove churn at the table's
// steady-state load. Backward-shift deletion leaves no tombstones, so
// chains must stay as tight after 30k churn operations as after a
// fresh bulk load: p99 within one probe group, max within a handful.
func TestFlowTableProbeP99UnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab FlowTable
	type rec struct {
		k packet.FlowKey
		f *FlowState
	}
	byKey := map[packet.FlowKey]*FlowState{}
	var live []rec
	mk := func() packet.FlowKey {
		return packet.FlowKey{
			SrcIP:   packet.IPv4{10, byte(rng.Intn(64)), 0, byte(rng.Intn(256))},
			DstIP:   packet.IPv4{10, 0, 1, byte(rng.Intn(64))},
			SrcPort: uint16(rng.Intn(1 << 14)), DstPort: 443,
			Proto: packet.IPProtocolTCP,
		}
	}
	for i := 0; i < 4096; i++ {
		k := mk()
		if _, ok := byKey[k]; ok {
			continue
		}
		f, _ := tab.GetOrInsert(HashFlowKey(k), k)
		byKey[k] = f
		live = append(live, rec{k, f})
	}
	for op := 0; op < 30000; op++ { // remove one, insert one: load stays put
		j := rng.Intn(len(live))
		tab.Remove(live[j].f)
		delete(byKey, live[j].k)
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		for {
			k := mk()
			if _, ok := byKey[k]; ok {
				continue
			}
			f, _ := tab.GetOrInsert(HashFlowKey(k), k)
			byKey[k] = f
			live = append(live, rec{k, f})
			break
		}
	}

	var lens []int
	for j := range tab.slots {
		s := &tab.slots[j]
		if s.ref != 0 {
			lens = append(lens, int((uint64(j)-uint64(s.hash))&tab.mask))
		}
	}
	sort.Ints(lens)
	p99 := lens[len(lens)*99/100]
	max := lens[len(lens)-1]
	if p99 >= groupWidth {
		t.Fatalf("probe p99 %d after churn; an un-decayed table keeps p99 within one group (< %d)", p99, groupWidth)
	}
	if max >= 4*groupWidth {
		t.Fatalf("probe max %d after churn; backward-shift deletion must keep chains short", max)
	}
	checkCtrlInvariants(t, &tab)
}

// TestFlowHashMatchesKeyHash checks the contract that lets ingest hash
// straight from frame bytes while key-based queries hash the decoded
// key: after ingesting each transport frame (UDP with UDPSeqEnabled),
// Flow over the decoded key finds the record the frame created.
func TestFlowHashMatchesKeyHash(t *testing.T) {
	frames := [][]byte{
		packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: 1234, DstPort: 80, Seq: 99, Flags: packet.TCPAck, PayloadLen: 1460,
		}),
		packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: packet.IPv4{192, 168, 255, 1}, DstIP: packet.IPv4{10, 255, 0, 9},
			SrcPort: 65535, DstPort: 1, Seq: 0, Flags: packet.TCPSyn,
		}),
		packet.BuildUDP(nil, packet.UDPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: 4000, DstPort: 4001, PayloadLen: 400, Seq: 7, HasSeq: true,
		}),
	}
	c := New(Config{SwitchName: "sw0", NumPorts: 4, LinkRate: units.Rate10G, UDPSeqEnabled: true})
	for i, fr := range frames {
		if err := c.Ingest(units.Time(i+1), fr); err != nil {
			t.Fatalf("frame %d: ingest: %v", i, err)
		}
		var dec packet.Decoded
		if err := dec.Decode(fr); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		key, ok := dec.Flow()
		if !ok {
			t.Fatalf("frame %d: decoder extracted no flow", i)
		}
		if f := c.Flow(key); f == nil || f.Key != key {
			t.Fatalf("frame %d: Flow(%v) = %v after ingest", i, key, f)
		}
	}
	if n := c.flows.Len(); n != len(frames) {
		t.Fatalf("%d records after %d distinct flows", n, len(frames))
	}
}

// TestFlowHashDispersesCorrelatedFlows pins the avalanche finalizer:
// flow populations whose 5-tuples differ only in correlated low bytes
// (sequential source ports AND sequential destination addresses — the
// shape a scan, a load balancer, or a bench harness produces) must
// spread over the table's home slots, which the hash's low bits pick.
// Raw FNV-1a sends every such flow to one residue mod 4: each
// xor-then-odd-multiply step leaves the hash's low k bits a function of
// the inputs' low k bits, and the two correlated byte injections cancel.
func TestFlowHashDispersesCorrelatedFlows(t *testing.T) {
	counts := make([]int, 4)
	const flows = 64
	for i := 0; i < flows; i++ {
		f := packet.BuildTCP(nil, packet.TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA,
			DstIP:   packet.IPv4{10, 0, 1, byte(i)},
			SrcPort: uint16(1000 + i), DstPort: 2000,
			Flags: packet.TCPAck, PayloadLen: 1460,
		})
		var dec packet.Decoded
		if err := dec.Decode(f); err != nil {
			t.Fatal(err)
		}
		key, _ := dec.Flow()
		counts[HashFlowKey(key)&3]++
	}
	busiest, used := 0, 0
	for _, c := range counts {
		if c > 0 {
			used++
		}
		if c > busiest {
			busiest = c
		}
	}
	if used < 3 || busiest > flows/2 {
		t.Fatalf("correlated flows collapse: per-residue counts %v", counts)
	}
}

// FuzzFlowTable interprets the fuzz input as an op stream over a tiny
// key space and cross-checks FlowTable against the map oracle, the same
// way the differential test does but with coverage-guided inputs. An op
// byte with the high bit set works on mice: files one, promotes one,
// removes one, or checks every slot's record kind.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 2, 2, 1, 2, 3, 0, 0})
	f.Add([]byte{0, 5, 0, 0, 5, 1, 0, 5, 2, 2, 5, 0, 2, 5, 1, 3, 0, 0})
	f.Add([]byte{0x80, 1, 2, 0x80, 2, 2, 0, 3, 2, 0x81, 1, 2, 0x83, 0, 0, 0x82, 2, 2, 0x80, 4, 2, 3, 0, 0, 2, 1, 2, 0x83, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab FlowTable
		oracle := map[packet.FlowKey]*FlowState{}
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			k := packet.FlowKey{
				SrcIP: ipA, DstIP: ipB,
				SrcPort: uint16(a), DstPort: uint16(b % 8),
				Proto: packet.IPProtocolTCP,
			}
			h := HashFlowKey(k)
			if op&0x80 != 0 {
				fuzzMouseOp(t, &tab, oracle, op%4, h, k)
				continue
			}
			switch op % 4 {
			case 0:
				f, inserted := tab.GetOrInsert(h, k)
				_, had := oracle[k]
				if inserted == had {
					t.Fatalf("op %d: inserted=%v but oracle had=%v for %v", i, inserted, had, k)
				}
				if had && oracle[k] != f {
					t.Fatalf("op %d: record moved for %v", i, k)
				}
				oracle[k] = f
			case 1:
				if got := tab.Lookup(h, k); got != oracle[k] {
					t.Fatalf("op %d: Lookup(%v) = %p, oracle %p", i, k, got, oracle[k])
				}
			case 2:
				if of, ok := oracle[k]; ok {
					tab.Remove(of)
					delete(oracle, k)
				}
			default:
				n := 0
				tab.Iterate(func(f *FlowState) {
					n++
					if oracle[f.Key] != f {
						t.Fatalf("op %d: Iterate found unknown record %v", i, f.Key)
					}
				})
				if n != len(oracle) || tab.Len() != len(oracle) {
					t.Fatalf("op %d: iterate %d, Len %d, oracle %d", i, n, tab.Len(), len(oracle))
				}
			}
		}
		for k, of := range oracle {
			if tab.Lookup(HashFlowKey(k), k) != of {
				t.Fatalf("final sweep lost %v", k)
			}
		}
		checkCtrlInvariants(t, &tab)
	})
}

// fuzzMouseOp applies FuzzFlowTable's mouse op to key k, of hash h.
func fuzzMouseOp(t *testing.T, tab *FlowTable, oracle map[packet.FlowKey]*FlowState, op uint8, h uint64, k packet.FlowKey) {
	of := oracle[k]
	switch op {
	case 0: // file a mouse for an absent key
		if of != nil {
			return
		}
		f := tab.insert(h, k, isMouse)
		if f.Key != k || f.self == 0 || tab.record(f.self) != f || f.flags != isMouse {
			t.Fatalf("insert(%v, isMouse) = %+v", k, *asMouse(f))
		}
		oracle[k] = f
	case 1: // promote a mouse
		if of == nil || of.flags&isMouse == 0 {
			return
		}
		asMouse(of).seq, asMouse(of).wireLen, of.LastSeen = 7, 60, 11
		f := tab.promote(h, of)
		if f.Key != k || f.self == 0 || tab.record(f.self) != f || f.flags&isMouse != 0 || f.SampledPackets != 1 || f.SampledBytes != 60 || f.FirstSeen != 11 || f.est.lastSeq != 7 {
			t.Fatalf("promote(%v) = %+v", k, *f)
		}
		if *asMouse(of) != (mouseRecord{}) {
			t.Fatalf("promoted mouse %v left behind as %+v", k, *asMouse(of))
		}
		oracle[k] = f
	case 2: // remove a mouse
		if of == nil || of.flags&isMouse == 0 {
			return
		}
		tab.Remove(of)
		delete(oracle, k)
	default:
		checkMouseRefs(t, tab)
	}
	if got := tab.Lookup(h, k); got != oracle[k] {
		t.Fatalf("mouse op %d: Lookup(%v) = %p, oracle %p", op, k, got, oracle[k])
	}
}

// TestFlowTableRecycledRecordIsBlank: the collector threads records onto
// a recency list and a port list and keeps a counted contribution in
// each. Remove zeroes the record, so the slab slot comes back from the
// free list on no list and counting for nothing, whatever it held.
func TestFlowTableRecycledRecordIsBlank(t *testing.T) {
	var tab FlowTable
	k1 := packet.FlowKey{SrcIP: packet.IPv4{10, 0, 0, 1}, SrcPort: 1, Proto: packet.IPProtocolTCP}
	k2 := packet.FlowKey{SrcIP: packet.IPv4{10, 0, 0, 2}, SrcPort: 2, Proto: packet.IPProtocolTCP}
	a, _ := tab.GetOrInsert(HashFlowKey(k1), k1)
	a.prev, a.next, a.counted, a.portSlot, a.outPort = 99, 99, 12345, 7, 3
	ref := a.self
	tab.Remove(a)
	if a.self != 0 {
		t.Fatalf("removed record still names itself %#x", a.self)
	}
	b, inserted := tab.GetOrInsert(HashFlowKey(k2), k2)
	if !inserted || b != a || b.self != ref {
		t.Fatalf("free list did not hand the removed record back (%p, %p)", a, b)
	}
	if b.prev != 0 || b.next != 0 || b.counted != 0 || b.portSlot != 0 {
		t.Fatalf("recycled record carries prev %#x next %#x counted %v slot %d", b.prev, b.next, b.counted, b.portSlot)
	}
}
