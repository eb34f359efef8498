package tlb

import "testing"

// translation is what one step of a lookup sequence observes.
type translation struct {
	hit   bool
	paddr uint64
	home  int
	owner int // HomeOfPhys(paddr)
}

// step translates virtual page vpn (touched from node) through pt and
// looks it up in tl.
func step(t *testing.T, pt *PageTable, tl *TLB, vpn uint64, node int) translation {
	t.Helper()
	vaddr := vpn<<pt.PageShift() | vpn%97
	paddr, home := pt.Translate(vaddr, node)
	owner, ok := pt.HomeOfPhys(paddr)
	if !ok {
		t.Fatalf("mapped physical address %#x has no home", paddr)
	}
	return translation{hit: tl.Lookup(pt.VPN(vaddr)), paddr: paddr, home: home, owner: owner}
}

func TestSnapshotRestoreResumes(t *testing.T) {
	// A strided walk over more pages than the TLB holds, with a hot
	// page revisited every third step: hits, cold misses and LRU
	// evictions all occur before and after the split.
	mixed := make([]uint64, 60)
	for i := range mixed {
		mixed[i] = uint64(i*7%11) * 3
		if i%3 == 0 {
			mixed[i] = 5
		}
	}
	cases := []struct {
		name    string
		entries int
		vpns    []uint64
		split   int
	}{
		{"lru-refresh", 4, []uint64{0, 1, 2, 3, 0, 4, 0, 1, 5, 2, 0, 6, 3, 4}, 6},
		{"mixed-small", 4, mixed, 25},
		{"mixed-large", 8, mixed, 37},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func() (*PageTable, *TLB) {
				pt, err := NewPageTable(8 << 10)
				if err != nil {
					t.Fatal(err)
				}
				tl, err := New(tc.entries)
				if err != nil {
					t.Fatal(err)
				}
				return pt, tl
			}
			pt, tl := fresh()
			var want []translation
			var ptSnap PageTableState
			var tlSnap TLBState
			for k, vpn := range tc.vpns {
				if k == tc.split {
					ptSnap, tlSnap = pt.Snapshot(), tl.Snapshot()
					if tl.Misses <= uint64(tc.entries) || tl.Misses == tl.Accesses {
						t.Fatalf("prefix has %d misses in %d lookups: want hits and evictions", tl.Misses, tl.Accesses)
					}
				}
				want = append(want, step(t, pt, tl, vpn, k%4))
			}

			pt2, tl2 := fresh()
			if err := pt2.Restore(ptSnap); err != nil {
				t.Fatal(err)
			}
			if err := tl2.Restore(tlSnap); err != nil {
				t.Fatal(err)
			}
			for k := tc.split; k < len(tc.vpns); k++ {
				if got := step(t, pt2, tl2, tc.vpns[k], k%4); got != want[k] {
					t.Fatalf("step %d (vpn %d): restored %+v, uninterrupted %+v", k, tc.vpns[k], got, want[k])
				}
			}
			if tl2.Accesses != tl.Accesses || tl2.Misses != tl.Misses {
				t.Errorf("restored counters %d/%d, uninterrupted %d/%d", tl2.Misses, tl2.Accesses, tl.Misses, tl.Accesses)
			}
			if pt2.Pages() != pt.Pages() {
				t.Errorf("restored page table maps %d pages, uninterrupted %d", pt2.Pages(), pt.Pages())
			}
		})
	}
}

func TestRestoreRejectsGeometry(t *testing.T) {
	tl, _ := New(4)
	tl.Lookup(1)
	other, _ := New(8)
	if err := other.Restore(tl.Snapshot()); err == nil {
		t.Error("TLB restore accepted a snapshot with the wrong entry count")
	}
	pt, _ := NewPageTable(8 << 10)
	pt.Translate(0x4000, 1)
	small, _ := NewPageTable(4 << 10)
	if err := small.Restore(pt.Snapshot()); err == nil {
		t.Error("page table restore accepted a snapshot with the wrong page shift")
	}
}

// TestTranslateHeldAcrossRestore: a TLB hit returns the translation the
// entry was filled with, which is the page table's; a restored TLB takes
// its translations back from the restored page table with Refill; Check
// reports a held translation the table does not have; and Refill rejects
// a valid entry for a page the table never mapped.
func TestTranslateHeldAcrossRestore(t *testing.T) {
	pt, _ := NewPageTable(8 << 10)
	tl, _ := New(4)
	vaddrs := []uint64{0x12345, 0x7_0000, 0x12345 + 8, 0x9_1000, 0x7_0010, 0x5_0000, 0x12345}
	type res struct {
		paddr uint64
		home  int
		hit   bool
	}
	run := func(tl *TLB, pt *PageTable, vs []uint64) []res {
		var out []res
		for k, v := range vs {
			p, h, hit := tl.Translate(pt, v, k%3)
			if wp, wh := pt.Translate(v, 0); p != wp || h != wh {
				t.Fatalf("%#x: TLB gives %#x home %d, page table %#x home %d", v, p, h, wp, wh)
			}
			out = append(out, res{p, h, hit})
		}
		if err := tl.Check(pt); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run(tl, pt, vaddrs[:4])
	if first[0].hit || !first[2].hit {
		t.Fatalf("hits %v: want a miss then a hit on the same page", first)
	}
	want := run(tl, pt, vaddrs[4:])

	// Split the same sequence at the same point through a snapshot.
	ptA, _ := NewPageTable(8 << 10)
	tlA, _ := New(4)
	run(tlA, ptA, vaddrs[:4])
	pt2, _ := NewPageTable(8 << 10)
	tl2, _ := New(4)
	if err := pt2.Restore(ptA.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := tl2.Restore(tlA.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := tl2.Refill(pt2); err != nil {
		t.Fatal(err)
	}
	got := run(tl2, pt2, vaddrs[4:])
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("restored run %v, uninterrupted %v", got, want)
		}
	}

	tl2.entries[0].pte.PPN++
	if tl2.Check(pt2) == nil {
		t.Error("Check accepted a held translation the page table does not have")
	}
	empty, _ := NewPageTable(8 << 10)
	if tl2.Refill(empty) == nil {
		t.Error("Refill accepted a valid entry for an unmapped page")
	}
}
