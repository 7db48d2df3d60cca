package core

import "ppnpart/internal/engine"

// RefineMode selects the per-level refinement strategy. The type and its
// modes live in internal/engine with the rest of the search core; core
// re-exports them for API stability.
type RefineMode = engine.RefineMode

const (
	// RefineAuto (the default) uses the data-parallel batch pass on
	// levels with at least 50 000 nodes and the serial competing
	// pipelines below it.
	RefineAuto = engine.RefineAuto
	// RefineSerial always runs the serial competing pipelines.
	RefineSerial = engine.RefineSerial
	// RefineBatch always runs the batch pass (with its serial FM polish).
	RefineBatch = engine.RefineBatch
)

// ParseRefineMode parses the CLI spelling ("auto", "serial", "batch");
// the empty string means auto.
func ParseRefineMode(s string) (RefineMode, error) {
	return engine.ParseRefineMode(s)
}
