package pipeline

import "fmt"

// RedundancyMode selects a conventional frontend-protection baseline to run
// instead of (or alongside) ITR, making the paper's Section 5 comparison
// executable rather than purely analytic.
type RedundancyMode int

// Redundancy modes.
const (
	// RedundancyNone runs the plain frontend (default).
	RedundancyNone RedundancyMode = iota
	// RedundancyDualDecode models IBM S/390 G5-style structural
	// duplication: every instruction is decoded by two independent
	// decoders whose signal vectors are compared at dispatch. A mismatch
	// is detected before the instruction proceeds, and recovery is a
	// same-cycle re-decode. There is no bandwidth cost — the cost is the
	// duplicated hardware (area/energy, modeled in internal/baseline).
	RedundancyDualDecode
	// RedundancyTimeRedundant models conventional time redundancy: every
	// instruction passes through the single frontend twice, consuming two
	// decode slots. Faults are detected by comparing the two passes;
	// the measurable cost is halved frontend bandwidth (IPC).
	RedundancyTimeRedundant
)

func (m RedundancyMode) String() string {
	switch m {
	case RedundancyNone:
		return "none"
	case RedundancyDualDecode:
		return "dual-decode"
	case RedundancyTimeRedundant:
		return "time-redundant"
	default:
		return fmt.Sprintf("redundancy(%d)", int(m))
	}
}
