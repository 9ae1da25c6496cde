package isa

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRollbackRestoresRegisters(t *testing.T) {
	st := NewArchState()
	mem := st.Mem.(*Memory)
	st.R[5] = 42
	st.F[3] = 99
	st.PC = 1000
	ck := st.Checkpoint(mem)

	st.R[5] = 1
	st.F[3] = 2
	st.PC = 2000
	st.Rollback(mem, &ck)
	if st.R[5] != 42 || st.F[3] != 99 || st.PC != 1000 {
		t.Fatalf("registers not restored: r5=%d f3=%d pc=%d", st.R[5], st.F[3], st.PC)
	}
}

func TestRollbackRestoresMemory(t *testing.T) {
	st := NewArchState()
	mem := st.Mem.(*Memory)
	mem.Store(0x100, 8, 111)
	mem.Store(0x200, 8, 222)
	ck := st.Checkpoint(mem)

	for _, w := range []struct {
		addr uint64
		size uint8
		v    uint64
	}{
		{0x100, 8, 999},
		{0x300, 4, 333},
		{0x100, 1, 0xff}, // same word again, narrower
		{0x102, 2, 0xbeef},
		{0x5000, 8, 7}, // a page first touched after the take
	} {
		mem.Store(w.addr, w.size, w.v)
	}
	if mem.Load(0x100, 8) == 111 {
		t.Fatal("test setup: stores did not apply")
	}
	st.Rollback(mem, &ck)
	for addr, want := range map[uint64]uint64{0x100: 111, 0x200: 222, 0x300: 0, 0x5000: 0} {
		if got := mem.Load(addr, 8); got != want {
			t.Fatalf("word %#x = %d, want %d", addr, got, want)
		}
	}
}

func TestCheckpointUnchangedByLaterStores(t *testing.T) {
	st := NewArchState()
	mem := st.Mem.(*Memory)
	mem.Store(0x100, 8, 111)
	st.R[1] = 5
	ck := st.Checkpoint(mem)

	mem.Store(0x100, 8, 999)
	mem.Store(0x9000, 8, 1)
	st.R[1] = 9
	if got := ck.Mem.Load(0x100, 8); got != 111 {
		t.Fatalf("checkpoint word 0x100 = %d after a later store, want 111", got)
	}
	if got := ck.Mem.Load(0x9000, 8); got != 0 {
		t.Fatalf("checkpoint sees a page stored after the take: %d", got)
	}
	if ck.R[1] != 5 {
		t.Fatalf("checkpoint r1 = %d, want 5", ck.R[1])
	}
}

func TestCheckpointRemainsValidAfterRollback(t *testing.T) {
	st := NewArchState()
	mem := st.Mem.(*Memory)
	st.R[1] = 5
	mem.Store(0x40, 8, 5)
	ck := st.Checkpoint(mem)
	for _, v := range []uint64{9, 13} {
		st.R[1] = v
		mem.Store(0x40, 8, v)
		st.Rollback(mem, &ck)
		if st.R[1] != 5 || mem.Load(0x40, 8) != 5 {
			t.Fatalf("after rolling back from %d: r1 = %d, mem = %d, want 5", v, st.R[1], mem.Load(0x40, 8))
		}
	}
}

func TestNewerCheckpointDoesNotRollBackTooFar(t *testing.T) {
	st := NewArchState()
	mem := st.Mem.(*Memory)
	st.Checkpoint(mem)
	mem.Store(0x100, 8, 1)
	ck := st.Checkpoint(mem)
	st.Rollback(mem, &ck)
	if got := mem.Load(0x100, 8); got != 1 {
		t.Fatalf("newer checkpoint rolled back too far: %d", got)
	}
}

// TestConcurrentRollback rolls one checkpoint back into many states at once
// while each diverges again; under -race it proves a checkpoint is only read.
func TestConcurrentRollback(t *testing.T) {
	src := NewArchState()
	srcMem := src.Mem.(*Memory)
	for p := uint64(0); p < 8; p++ {
		srcMem.Store(pageAddr(p, 0), 8, p+1)
	}
	src.R[2], src.PC = 77, 12
	ck := src.Checkpoint(srcMem)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := NewArchState()
			mem := st.Mem.(*Memory)
			for iter := 0; iter < 20; iter++ {
				st.Rollback(mem, &ck)
				if st.R[2] != 77 || st.PC != 12 || !mem.Equal(ck.Mem) {
					t.Errorf("worker %d: rollback did not restore the checkpoint", w)
					return
				}
				st.R[2] = uint64(w)
				mem.Store(pageAddr(uint64(iter)%8, 8), 8, uint64(w))
			}
		}(w)
	}
	wg.Wait()
}

// Property: for any stores after a take, rollback restores memory contents
// exactly as they were at the take.
func TestPropertyRollbackIsExact(t *testing.T) {
	if err := quick.Check(func(seed []uint16) bool {
		st := NewArchState()
		mem := st.Mem.(*Memory)
		for i, v := range seed {
			mem.Store(uint64(i)*8, 8, uint64(v))
		}
		before := mem.Clone()
		ck := st.Checkpoint(mem)
		// Post-take stores to overlapping addresses, some on fresh pages.
		for i, v := range seed {
			mem.Store(uint64(v%64)*8+uint64(v%3)<<pageShift, []uint8{1, 2, 4, 8}[i%4], uint64(i)*31)
		}
		st.Rollback(mem, &ck)
		return mem.Equal(before)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
