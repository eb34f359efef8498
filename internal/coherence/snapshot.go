package coherence

// Checkpoint DTOs for the directory protocol state and the migratory
// classifier. The probe callback and MigratoryOpt flag are re-wired /
// re-derived from configuration by memsys on rebuild.

// DirEntryState is one line's directory state.
type DirEntryState struct {
	Sharers    uint64
	Owner      int8
	Excl       int8
	LastWriter int8
	Migratory  bool
	EverShared bool
}

// DirectoryState is the dynamic state of the Directory.
type DirectoryState struct {
	Entries map[uint64]DirEntryState

	MigratoryTransfers uint64
	Reads              uint64
	ReadsDirty         uint64
	Writes             uint64
	WritesShared       uint64
	Upgrades           uint64
	Writebacks         uint64
	Flushes            uint64
	MigratoryLines     uint64
	MigratoryReadsCC   uint64
	MigratoryWrites    uint64
}

// Snapshot captures the directory.
func (d *Directory) Snapshot() DirectoryState {
	s := DirectoryState{
		Entries:            make(map[uint64]DirEntryState, d.lines),
		MigratoryTransfers: d.MigratoryTransfers,
		Reads:              d.Reads,
		ReadsDirty:         d.ReadsDirty,
		Writes:             d.Writes,
		WritesShared:       d.WritesShared,
		Upgrades:           d.Upgrades,
		Writebacks:         d.Writebacks,
		Flushes:            d.Flushes,
		MigratoryLines:     d.MigratoryLines,
		MigratoryReadsCC:   d.MigratoryReadsCC,
		MigratoryWrites:    d.MigratoryWrites,
	}
	d.visit(func(line uint64, e *dirEntry) {
		s.Entries[line] = DirEntryState{
			Sharers:    e.sharers,
			Owner:      e.owner,
			Excl:       e.excl,
			LastWriter: e.lastWriter,
			Migratory:  e.migratory,
			EverShared: e.everShared,
		}
	})
	return s
}

// Restore refills the directory for a machine of nodes nodes and checks
// every restored line (CheckAll), so an image with an owner out of range
// or a dirty owner beside sharers is rejected here rather than panicking
// later. The probe callback installed by SetProbe and the MigratoryOpt
// flag are left as configured.
func (d *Directory) Restore(s DirectoryState, nodes int) error {
	clear(d.chunks)
	d.lines = 0
	for line, e := range s.Entries {
		*d.claim(line) = dirEntry{
			sharers:    e.Sharers,
			owner:      e.Owner,
			excl:       e.Excl,
			lastWriter: e.LastWriter,
			migratory:  e.Migratory,
			everShared: e.EverShared,
			used:       true,
		}
	}
	d.MigratoryTransfers = s.MigratoryTransfers
	d.Reads = s.Reads
	d.ReadsDirty = s.ReadsDirty
	d.Writes = s.Writes
	d.WritesShared = s.WritesShared
	d.Upgrades = s.Upgrades
	d.Writebacks = s.Writebacks
	d.Flushes = s.Flushes
	d.MigratoryLines = s.MigratoryLines
	d.MigratoryReadsCC = s.MigratoryReadsCC
	d.MigratoryWrites = s.MigratoryWrites
	return d.CheckAll(nodes)
}

// ClassifierState is the dynamic state of the Classifier.
type ClassifierState struct {
	LineWriteMisses map[uint64]uint64
	PCRefs          map[uint64]uint64
	MigWriteTotal   uint64
	MigWriteInCS    uint64
	MigReadTotal    uint64
	MigReadInCS     uint64
}

// Snapshot captures the classifier.
func (c *Classifier) Snapshot() ClassifierState {
	s := ClassifierState{
		LineWriteMisses: make(map[uint64]uint64, len(c.lineWriteMisses)),
		PCRefs:          make(map[uint64]uint64, len(c.pcRefs)),
		MigWriteTotal:   c.MigWriteTotal,
		MigWriteInCS:    c.MigWriteInCS,
		MigReadTotal:    c.MigReadTotal,
		MigReadInCS:     c.MigReadInCS,
	}
	for k, v := range c.lineWriteMisses {
		s.LineWriteMisses[k] = v
	}
	for k, v := range c.pcRefs {
		s.PCRefs[k] = v
	}
	return s
}

// Restore refills the classifier.
func (c *Classifier) Restore(s ClassifierState) {
	clear(c.lineWriteMisses)
	clear(c.pcRefs)
	for k, v := range s.LineWriteMisses {
		c.lineWriteMisses[k] = v
	}
	for k, v := range s.PCRefs {
		c.pcRefs[k] = v
	}
	c.MigWriteTotal = s.MigWriteTotal
	c.MigWriteInCS = s.MigWriteInCS
	c.MigReadTotal = s.MigReadTotal
	c.MigReadInCS = s.MigReadInCS
}
