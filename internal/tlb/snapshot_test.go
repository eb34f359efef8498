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
