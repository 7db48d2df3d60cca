package engine

import "fmt"

// RefineMode selects the per-level refinement strategy.
type RefineMode int

const (
	// RefineAuto (the default) picks the data-parallel batch pass on
	// levels with at least Config.BatchThreshold nodes (50 000 by
	// default) and the serial competing pipelines below it.
	RefineAuto RefineMode = iota
	// RefineSerial always runs the serial competing pipelines.
	RefineSerial
	// RefineBatch always runs the batch pass (with its serial FM polish).
	RefineBatch
)

// String names the mode as the CLI flags and job options spell it.
func (m RefineMode) String() string {
	switch m {
	case RefineAuto:
		return "auto"
	case RefineSerial:
		return "serial"
	case RefineBatch:
		return "batch"
	default:
		return fmt.Sprintf("refine(%d)", int(m))
	}
}

// Valid reports whether m is a known mode.
func (m RefineMode) Valid() bool { return m >= RefineAuto && m <= RefineBatch }

// ParseRefineMode parses the CLI spelling; the empty string means auto.
func ParseRefineMode(s string) (RefineMode, error) {
	switch s {
	case "", "auto":
		return RefineAuto, nil
	case "serial":
		return RefineSerial, nil
	case "batch":
		return RefineBatch, nil
	default:
		return 0, fmt.Errorf("engine: unknown refine mode %q (want auto, serial or batch)", s)
	}
}
