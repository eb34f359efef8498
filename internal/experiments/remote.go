package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/runner"
)

// SpecJSON returns the marshaled identity of experiment id under sc — the
// bytes a remote submission sends on the wire. Hashing these bytes
// (runner.SpecHash) gives the same content address the local sweep journal
// uses, because json.Marshal of a struct is canonical (fixed field order,
// compact) and re-marshaling the resulting RawMessage is byte-preserving.
func (sc Scale) SpecJSON(id string) (json.RawMessage, error) {
	b, err := json.Marshal(sc.Spec(id))
	if err != nil {
		return nil, fmt.Errorf("experiments: spec %s: %w", id, err)
	}
	return b, nil
}

// PointFromSpec reconstructs a runnable orchestration point from a
// marshaled PointSpec — the remote worker's inverse of Points: sweepd
// ships the spec bytes, the worker decodes the experiment and scale they
// denote and runs them under its own supervision pool. The scale carries
// every PointSpec field, so the rebuilt point's spec hashes to the same
// content address as the spec bytes and the record the worker reports
// lands on the ledger entry the server expects.
func PointFromSpec(raw json.RawMessage) (runner.Point, error) {
	var ps PointSpec
	if err := json.Unmarshal(raw, &ps); err != nil {
		return runner.Point{}, fmt.Errorf("experiments: bad point spec: %w", err)
	}
	var exp *Experiment
	for i := range All {
		if All[i].ID == ps.Experiment {
			exp = &All[i]
			break
		}
	}
	if exp == nil {
		return runner.Point{}, fmt.Errorf("experiments: unknown experiment %q in spec", ps.Experiment)
	}
	return point(*exp, Scale{
		OLTPTransactions: ps.OLTPTransactions,
		OLTPWarmupTx:     ps.OLTPWarmupTx,
		DSSRows:          ps.DSSRows,
		MaxCycles:        ps.MaxCycles,
		WatchdogWindow:   ps.WatchdogWindow,
		DisableWatchdog:  ps.DisableWatchdog,
		Faults:           ps.Faults,
		LatchPolicy:      ps.LatchPolicy,
	}, nil), nil
}
