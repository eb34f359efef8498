package coherence

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFirstReadGrantsExclusive(t *testing.T) {
	d := NewDirectory()
	res := d.Read(0, 100)
	if res.Source != SrcMemory || !res.Exclusive {
		t.Errorf("first read: %+v, want memory+exclusive", res)
	}
	if d.Sharers(100) != 1 {
		t.Errorf("sharers = %d", d.Sharers(100))
	}
}

func TestLargestNodeUsesTopSharerBit(t *testing.T) {
	d := NewDirectory()
	top := MaxNodes - 1
	d.Read(0, 100)
	d.Read(top, 100)
	if got := d.entries[100].sharers; got != 1|1<<63 {
		t.Errorf("sharers mask = %#x, want nodes 0 and %d", got, top)
	}
	if !d.IsSharer(top, 100) || d.Sharers(100) != 2 {
		t.Errorf("node %d not tracked: sharers = %d", top, d.Sharers(100))
	}
	if res := d.Write(top, 100); len(res.Invalidates) != 1 || res.Invalidates[0] != 0 {
		t.Errorf("write by node %d invalidated %v, want [0]", top, res.Invalidates)
	}
	if d.OwnerOf(100) != top {
		t.Errorf("owner = %d, want %d", d.OwnerOf(100), top)
	}
}

func TestSecondReadShares(t *testing.T) {
	d := NewDirectory()
	d.Read(0, 100)
	res := d.Read(1, 100)
	if res.Source != SrcMemory || res.Exclusive {
		t.Errorf("second read: %+v, want memory, not exclusive", res)
	}
	if d.Sharers(100) != 2 {
		t.Errorf("sharers = %d", d.Sharers(100))
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := NewDirectory()
	d.Read(0, 100)
	d.Read(1, 100)
	d.Read(2, 100)
	res := d.Write(1, 100)
	if res.Source != SrcNone { // node 1 already shares: upgrade
		t.Errorf("upgrade source = %v", res.Source)
	}
	if len(res.Invalidates) != 2 {
		t.Errorf("invalidates %v, want nodes 0 and 2", res.Invalidates)
	}
	for _, n := range res.Invalidates {
		if n == 1 {
			t.Error("requester must not invalidate itself")
		}
	}
	if d.OwnerOf(100) != 1 {
		t.Errorf("owner = %d", d.OwnerOf(100))
	}
	if !res.WasShared {
		t.Error("write to shared line must be flagged")
	}
}

func TestDirtyReadForwards(t *testing.T) {
	d := NewDirectory()
	d.Write(2, 50)
	res := d.Read(3, 50)
	if res.Source != SrcOwnerCache || res.Owner != 2 {
		t.Fatalf("dirty read: %+v, want forward from node 2", res)
	}
	// Owner downgrades: both nodes now share; no owner.
	if d.OwnerOf(50) != -1 {
		t.Error("owner not cleared after sharing write-back")
	}
	if d.Sharers(50) != 2 {
		t.Errorf("sharers = %d", d.Sharers(50))
	}
	if d.ReadsDirty != 1 {
		t.Errorf("ReadsDirty = %d", d.ReadsDirty)
	}
}

func TestOwnershipTransfer(t *testing.T) {
	d := NewDirectory()
	d.Write(0, 7)
	res := d.Write(1, 7)
	if res.Source != SrcOwnerCache || res.Owner != 0 {
		t.Fatalf("M->M transfer: %+v", res)
	}
	if d.OwnerOf(7) != 1 {
		t.Errorf("owner = %d", d.OwnerOf(7))
	}
}

func TestWriteback(t *testing.T) {
	d := NewDirectory()
	d.Write(0, 9)
	d.Writeback(0, 9)
	if d.OwnerOf(9) != -1 || d.Sharers(9) != 0 {
		t.Error("writeback did not clear ownership")
	}
	res := d.Read(1, 9)
	if res.Source != SrcMemory {
		t.Error("post-writeback read should be serviced by memory")
	}
}

func TestEvictClean(t *testing.T) {
	d := NewDirectory()
	d.Read(0, 11)
	d.Read(1, 11)
	d.EvictClean(0, 11)
	if d.Sharers(11) != 1 {
		t.Errorf("sharers = %d after clean eviction", d.Sharers(11))
	}
	d.EvictClean(0, 999) // unknown line: no-op
}

func TestFlushKeepsCleanCopy(t *testing.T) {
	d := NewDirectory()
	d.Write(2, 13)
	if !d.Flush(2, 13, true) {
		t.Fatal("flush of owned dirty line failed")
	}
	if d.OwnerOf(13) != -1 {
		t.Error("flush did not clear ownership")
	}
	if d.Sharers(13) != 1 {
		t.Error("flush dropped the clean copy despite keepClean")
	}
	// Next read is serviced by memory, not cache-to-cache: the paper's
	// point.
	res := d.Read(3, 13)
	if res.Source != SrcMemory {
		t.Errorf("post-flush read source = %v, want memory", res.Source)
	}
	// Flushing a non-owned line is a no-op.
	if d.Flush(0, 13, true) {
		t.Error("flush of unowned line should fail")
	}
}

func TestFlushDropCopy(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 14)
	d.Flush(1, 14, false)
	if d.Sharers(14) != 0 {
		t.Error("flush with keepClean=false should drop the copy")
	}
}

// TestMigratoryDetectionHeuristic checks the paper's footnote exactly: a
// line is marked migratory when an exclusive request arrives, the number of
// cached copies is 2, and the last writer is not the requester.
func TestMigratoryDetectionHeuristic(t *testing.T) {
	d := NewDirectory()
	// Classic migratory pattern: node 0 reads+writes, node 1 reads (2
	// copies: after the dirty read both share), node 1 writes.
	d.Read(0, 21)
	d.Write(0, 21)
	d.Read(1, 21) // dirty read: sharers {0, 1}
	if d.IsMigratory(21) {
		t.Fatal("line marked migratory too early")
	}
	res := d.Write(1, 21) // copies == 2, last writer 0 != requester 1
	if !res.Migratory || !d.IsMigratory(21) {
		t.Fatal("migratory pattern not detected")
	}
	if d.MigratoryLines != 1 {
		t.Errorf("MigratoryLines = %d", d.MigratoryLines)
	}
}

func TestMigratoryNotDetectedForSelfUpgrade(t *testing.T) {
	d := NewDirectory()
	// Same node re-acquiring exclusivity must not flag migratory.
	d.Read(0, 22)
	d.Write(0, 22)
	d.Read(0, 22)
	d.Write(0, 22)
	if d.IsMigratory(22) {
		t.Error("self re-acquisition flagged migratory")
	}
	// Wide sharing (3 copies) must not flag either.
	d2 := NewDirectory()
	d2.Write(0, 23)
	d2.Read(1, 23)
	d2.Read(2, 23) // 3 sharers
	d2.Write(1, 23)
	if d2.IsMigratory(23) {
		t.Error("wide sharing flagged migratory")
	}
}

// Property: under random operations there is never simultaneously an owner
// and another sharer (single-writer invariant), and sharer count stays
// within node count.
func TestSingleWriterInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		d := NewDirectory()
		const nodes = 4
		for i := 0; i < 400; i++ {
			node := rng.IntN(nodes)
			line := uint64(rng.IntN(8))
			switch rng.IntN(5) {
			case 0, 1:
				d.Read(node, line)
			case 2:
				d.Write(node, line)
			case 3:
				d.Writeback(node, line)
			case 4:
				d.Flush(node, line, rng.IntN(2) == 0)
			}
			if o := d.OwnerOf(line); o >= 0 {
				if d.Sharers(line) != 0 {
					return false // owner coexisting with sharers
				}
			}
			if d.Sharers(line) > nodes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyReadFraction(t *testing.T) {
	d := NewDirectory()
	if d.DirtyReadFraction() != 0 {
		t.Error("empty directory fraction should be 0")
	}
	d.Write(0, 1)
	d.Read(1, 1) // dirty
	d.Read(2, 2) // clean
	if got := d.DirtyReadFraction(); got != 0.5 {
		t.Errorf("dirty fraction = %f, want 0.5", got)
	}
}

func TestAdaptiveMigratoryProtocol(t *testing.T) {
	d := NewDirectory()
	d.MigratoryOpt = true
	// Build the migratory classification first (same pattern as above).
	d.Read(0, 31)
	d.Write(0, 31)
	d.Read(1, 31)
	d.Write(1, 31) // classified migratory here
	if !d.IsMigratory(31) {
		t.Fatal("setup: line not migratory")
	}
	// Node 2 reads: with the adaptive protocol it receives ownership and
	// node 1 is invalidated.
	res := d.Read(2, 31)
	if res.Source != SrcOwnerCache || !res.MigratoryTransfer || !res.Exclusive {
		t.Fatalf("migratory read: %+v, want exclusive ownership transfer", res)
	}
	if d.OwnerOf(31) != 2 {
		t.Errorf("owner = %d, want 2", d.OwnerOf(31))
	}
	if d.Sharers(31) != 0 {
		t.Errorf("sharers = %d; the old owner must be invalidated", d.Sharers(31))
	}
	// Node 2's subsequent write needs no coherence action at all.
	w := d.Write(2, 31)
	if w.Source != SrcNone || len(w.Invalidates) != 0 {
		t.Errorf("post-transfer write: %+v, want silent local upgrade", w)
	}
	if d.MigratoryTransfers != 1 {
		t.Errorf("transfers = %d", d.MigratoryTransfers)
	}
	// Without the option the same read must behave as plain MESI.
	d2 := NewDirectory()
	d2.Read(0, 31)
	d2.Write(0, 31)
	d2.Read(1, 31)
	d2.Write(1, 31)
	r2 := d2.Read(2, 31)
	if r2.MigratoryTransfer {
		t.Error("migratory transfer without MigratoryOpt")
	}
}
