package isa

// Checkpoint is a capture of committed architectural state: both register
// files, the PC and a frozen copy-on-write snapshot of data memory. It is the
// one way architectural state is saved and restored. Pipeline snapshots, the
// fault harness's golden shadow and the DME backend's shadow each hold one,
// and so does the pipeline's coarse-grain checkpoint of the paper's Section
// 2.3 (in the spirit of SWICH [6] and Sorin et al. [7]):
//
//	"The key idea is to take a coarse-grain checkpoint when there are no
//	 unchecked lines in the ITR cache. ... Then in cases where the
//	 lightweight processor flush and restart is not possible, recovery can
//	 be done by rolling back to the previously taken coarse-grain
//	 checkpoint instead of aborting the program."
//
// The pipeline does not wait for that condition, which run-once code can keep
// false forever: it takes a checkpoint at every interval and rolls back only
// when the detector's stamp shows the fault postdates it.
//
// Taking a checkpoint is O(page table) with zero page copies; the live memory
// copies a captured page on its first store to it. Mem is frozen, so a
// Checkpoint is immutable: it may be copied by value and rolled back into any
// number of states concurrently. The zero value (Mem == nil) holds no capture.
type Checkpoint struct {
	R, F [NumRegs]uint64
	PC   uint64
	Mem  *Memory
}

// Checkpoint captures the state's registers and PC and a snapshot of mem,
// the concrete memory the state writes through (behind st.Mem, possibly via
// an address-translating bus).
func (st *ArchState) Checkpoint(mem *Memory) Checkpoint {
	return Checkpoint{R: st.R, F: st.F, PC: st.PC, Mem: mem.Snapshot()}
}

// Rollback restores the state's registers and PC and mem's contents to ck.
// mem keeps its identity, so aliases of it stay valid; ck is only read.
func (st *ArchState) Rollback(mem *Memory, ck *Checkpoint) {
	st.R, st.F, st.PC = ck.R, ck.F, ck.PC
	mem.CopyFrom(ck.Mem)
}
