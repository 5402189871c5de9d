package mcheck

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
)

// The persist model: guest.PersistentCounterProgram under the
// rebootStepper, checked against whole-machine crashes that discard
// every unfenced line (chaos.Action.CrashVolatile semantics) followed by
// a reboot of the same binary over the surviving NVM contents. Each
// crash is audited for bounded durability loss; the final boot must
// finish exactly what it started from with the lock free.
func persistModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	var src string
	switch p["variant"] {
	case "flushed":
		src = guest.PersistentCounterProgram(workers, iters)
	case "underflush":
		src = guest.UnderflushedCounterProgram(workers, iters)
	default:
		return nil, fmt.Errorf("mcheck: persist: unknown variant %q", p["variant"])
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("mcheck: persist: %v", err)
	}
	m := rebootModel(modelID{"persist", p, ActCrashVolatile}, prog, false)
	lock, counter := prog.MustSymbol("lock"), prog.MustSymbol("counter")
	want := isa.Word(workers * iters)
	// The watchpoints sit on the stepper's memory, so they survive
	// reboots; they extend the watchRME rules with the boot-time repair.
	m.watch = func(in *instance) { watchRME(in, lock, counter, true) }
	// The crash audit: at this persist boundary at most one increment
	// may be volatile-only. in.base is what the next boot starts from.
	m.crash = func(in *instance, d Decision) {
		mem := in.mem()
		vol, nvm := int64(mem.Peek(counter)), int64(mem.NVPeek(counter))
		if vol-nvm > 1 {
			in.vio.add("persist-loss",
				"crash at persist op %d: counter is %d volatile but %d in NVM — %d increments lost, bound is 1",
				d.At, vol, nvm, vol-nvm)
		}
		discard(mem, d)
		in.base = mem.Peek(counter)
	}
	m.finish = func(in *instance) {
		mem, boots := in.mem(), in.s.(*rebootStepper).boots
		if got := mem.Peek(counter); got != in.base+want {
			in.vio.add("counter-exact", "counter = %d after boot %d, want %d (%d survived + %d new)",
				got, boots+1, in.base+want, in.base, want)
		}
		if owner := mem.Peek(lock) & 0xFFFF; owner != 0 {
			in.vio.add("lock-discipline", "lock still owned by %d after the final boot completed", owner)
		}
	}
	return m, nil
}
