package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/tlb"
)

// Checkpoint DTOs for the memory system. Wiring (the directory probe,
// the stream-buffer fetch closure, invalidation hooks, tracers) is
// re-created by New/SetInvalidationHook on rebuild; only busy-until
// times, cache/TLB/MSHR/directory contents and counters are dynamic.

// HierarchyState is one node's dynamic hierarchy state.
type HierarchyState struct {
	L1I     cache.CacheState
	L1D     cache.CacheState
	L2      cache.CacheState
	L1IMSHR cache.MSHRState
	L1DMSHR cache.MSHRState
	L2MSHR  cache.MSHRState
	ITLB    tlb.TLBState
	DTLB    tlb.TLBState
	SBuf    cache.StreamBufState

	L1DPorts []uint64
	L1IPorts []uint64
	L2Ports  []uint64

	IFetchSBHits      uint64
	PrefetchesIssued  uint64
	PrefetchesDropped uint64
	FlushesIssued     uint64
}

// SystemState is the machine-wide memory-system state.
type SystemState struct {
	PageTable  tlb.PageTableState
	Directory  coherence.DirectoryState
	Classifier coherence.ClassifierState
	Net        mesh.MeshState
	Faults     fault.InjectorState
	Nodes      []HierarchyState

	BusReqBusy  []uint64
	BusRespBusy []uint64
	DirBusy     []uint64
	BankBusy    [][]uint64
}

// Snapshot captures the memory system's dynamic state.
func (s *System) Snapshot() SystemState {
	st := SystemState{
		PageTable:   s.pt.Snapshot(),
		Directory:   s.dir.Snapshot(),
		Classifier:  s.classifier.Snapshot(),
		Net:         s.net.Snapshot(),
		Faults:      s.faults.Snapshot(),
		BusReqBusy:  append([]uint64(nil), s.busReqBusy...),
		BusRespBusy: append([]uint64(nil), s.busRespBusy...),
		DirBusy:     append([]uint64(nil), s.dirBusy...),
		BankBusy:    make([][]uint64, len(s.bankBusy)),
	}
	for n, banks := range s.bankBusy {
		st.BankBusy[n] = append([]uint64(nil), banks...)
	}
	for _, h := range s.nodes {
		st.Nodes = append(st.Nodes, HierarchyState{
			L1I:               h.l1i.Snapshot(),
			L1D:               h.l1d.Snapshot(),
			L2:                h.l2.Snapshot(),
			L1IMSHR:           h.l1iMSHR.Snapshot(),
			L1DMSHR:           h.l1dMSHR.Snapshot(),
			L2MSHR:            h.l2MSHR.Snapshot(),
			ITLB:              h.itlb.Snapshot(),
			DTLB:              h.dtlb.Snapshot(),
			SBuf:              h.sbuf.Snapshot(),
			L1DPorts:          append([]uint64(nil), h.l1dPorts...),
			L1IPorts:          append([]uint64(nil), h.l1iPorts...),
			L2Ports:           append([]uint64(nil), h.l2Ports...),
			IFetchSBHits:      h.IFetchSBHits,
			PrefetchesIssued:  h.PrefetchesIssued,
			PrefetchesDropped: h.PrefetchesDropped,
			FlushesIssued:     h.FlushesIssued,
		})
	}
	return st
}

// Restore refills the memory system from a snapshot taken under the same
// configuration.
func (s *System) Restore(st SystemState) error {
	if len(st.Nodes) != len(s.nodes) {
		return fmt.Errorf("memsys: snapshot has %d nodes, configured %d", len(st.Nodes), len(s.nodes))
	}
	if len(st.BusReqBusy) != len(s.busReqBusy) || len(st.BusRespBusy) != len(s.busRespBusy) ||
		len(st.DirBusy) != len(s.dirBusy) || len(st.BankBusy) != len(s.bankBusy) {
		return fmt.Errorf("memsys: snapshot bus/bank shape does not match configuration")
	}
	if err := s.pt.Restore(st.PageTable); err != nil {
		return err
	}
	if err := s.dir.Restore(st.Directory, s.cfg.Nodes); err != nil {
		return err
	}
	s.classifier.Restore(st.Classifier)
	if err := s.net.Restore(st.Net); err != nil {
		return err
	}
	if (s.faults == nil) != !st.Faults.Enabled {
		return fmt.Errorf("memsys: snapshot fault-injection enablement does not match configuration")
	}
	s.faults.Restore(st.Faults)
	copy(s.busReqBusy, st.BusReqBusy)
	copy(s.busRespBusy, st.BusRespBusy)
	copy(s.dirBusy, st.DirBusy)
	for n := range s.bankBusy {
		if len(st.BankBusy[n]) != len(s.bankBusy[n]) {
			return fmt.Errorf("memsys: snapshot node %d has %d banks, configured %d",
				n, len(st.BankBusy[n]), len(s.bankBusy[n]))
		}
		copy(s.bankBusy[n], st.BankBusy[n])
	}
	for n, h := range s.nodes {
		hs := &st.Nodes[n]
		if err := h.l1i.Restore(hs.L1I); err != nil {
			return err
		}
		if err := h.l1d.Restore(hs.L1D); err != nil {
			return err
		}
		if err := h.l2.Restore(hs.L2); err != nil {
			return err
		}
		if err := h.l1iMSHR.Restore(hs.L1IMSHR); err != nil {
			return err
		}
		if err := h.l1dMSHR.Restore(hs.L1DMSHR); err != nil {
			return err
		}
		if err := h.l2MSHR.Restore(hs.L2MSHR); err != nil {
			return err
		}
		if err := h.itlb.Restore(hs.ITLB); err != nil {
			return err
		}
		if err := h.dtlb.Restore(hs.DTLB); err != nil {
			return err
		}
		if err := h.itlb.Refill(s.pt); err != nil {
			return err
		}
		if err := h.dtlb.Refill(s.pt); err != nil {
			return err
		}
		if err := h.sbuf.Restore(hs.SBuf); err != nil {
			return err
		}
		if len(hs.L1DPorts) != len(h.l1dPorts) || len(hs.L1IPorts) != len(h.l1iPorts) ||
			len(hs.L2Ports) != len(h.l2Ports) {
			return fmt.Errorf("memsys: snapshot node %d port counts do not match configuration", n)
		}
		copy(h.l1dPorts, hs.L1DPorts)
		copy(h.l1iPorts, hs.L1IPorts)
		copy(h.l2Ports, hs.L2Ports)
		h.IFetchSBHits = hs.IFetchSBHits
		h.PrefetchesIssued = hs.PrefetchesIssued
		h.PrefetchesDropped = hs.PrefetchesDropped
		h.FlushesIssued = hs.FlushesIssued
	}
	return nil
}
