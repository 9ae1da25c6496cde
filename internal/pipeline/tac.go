package pipeline

// TAC: Timestamp-based Assertion Checking for the out-of-order scheduler,
// the third member of the paper's fault-check regimen (Section 1 cites it
// alongside RNA from the authors' ICCD 2006 work):
//
//	"recording and confirming correct issue ordering among instructions in
//	 a trace can detect faults in the out-of-order scheduler of a
//	 processor, similar to Timestamp-based Assertion Checking (TAC)"
//
// The invariant: an instruction may not issue before every producer of its
// source operands has completed. A transient in the wakeup/select logic can
// fire an instruction early, making it read a stale physical register. TAC
// records issue/complete timestamps and asserts the ordering at commit; a
// violation flushes the window and re-executes, exactly like an ITR retry.

import "itr/internal/isa"

// TACStats counts scheduler-check events.
type TACStats struct {
	// Checked counts commit-time ordering assertions evaluated.
	Checked int64
	// Violations counts detected issue-order violations.
	Violations int64
	// Recovered counts violations repaired by flush-and-restart.
	Recovered int64
}

// SchedulerFaultHook lets an injector force one dynamic instruction to issue
// prematurely (ignoring operand readiness), modelling a transient in the
// scheduler's wakeup/select logic. Return true to fire the fault on this
// decode event.
type SchedulerFaultHook func(decodeIndex int64) bool

// SetSchedulerFaultHook installs the scheduler fault injector.
func (c *CPU) SetSchedulerFaultHook(h SchedulerFaultHook) { c.schedFaultHook = h }

// TAC returns the scheduler-check statistics.
func (c *CPU) TAC() TACStats { return c.tac }

// tacIssueCheck is called at issue time for an instruction whose operands
// were not all ready (a premature issue). It models the architectural damage
// — the instruction consumes stale register values — by recomputing its
// outcome against the committed (pre-producer) state.
func (c *CPU) tacPrematureIssue(seq uint64) {
	idx := c.slot(seq)
	if c.slots.flags[idx]&slotWrongPath != 0 {
		return
	}
	// Recompute with committed (stale) register values: the speculative
	// producers' results are exactly what a premature issue misses.
	stale := *c.committed
	stale.Mem = c.spec.overlay
	c.slots.outcome[idx] = stale.Exec(isa.UnpackSignals(c.slots.sig[idx]), c.slots.pc[idx])
	c.slots.flags[idx] |= slotTACViolated
}

// tacCommitCheck asserts the issue-order invariant for the committing uop,
// given its flags word. It returns true when a violation was detected (the
// caller flushes).
func (c *CPU) tacCommitCheck(flags uint64) bool {
	if !c.cfg.TACEnabled {
		return false
	}
	c.tac.Checked++
	if flags&slotTACViolated == 0 {
		return false
	}
	c.tac.Violations++
	return true
}
