package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that pinToOneCPU has already re-executed; its
// value is "<cpu>/<nproc>".
const pinnedEnv = "BENCH_PINNED"

// cpuMask is a sched_{get,set}affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func schedAffinity(trap uintptr, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU re-executes the benchmark bound to one CPU, keeping
// GOMAXPROCS at the value the runtime chose for the whole machine.
//
// Every simulated process switch readies a goroutine, and with an idle P
// the runtime wakes a second thread for it. On a virtual machine that wake
// crosses vCPUs through the hypervisor, whose latency depends on the host's
// load: unpinned on a 2-vCPU virtual machine, the same wavefront pass took
// anywhere from 1.1 s to 1.9 s within minutes. On one CPU the wakes still
// happen and still cost what they cost the process, but no longer wait on
// another vCPU.
//
// It returns only on error or in the re-executed process.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	// Affinity is per thread and execve keeps the calling thread's mask, so
	// the mask must be set on the thread that executes.
	runtime.LockOSThread()
	var m cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &m); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu := -1
	for i := len(m) - 1; i >= 0 && cpu < 0; i-- {
		if m[i] != 0 {
			cpu = i*64 + 63 - bits.LeadingZeros64(m[i])
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(),
		fmt.Sprintf("%s=%d/%d", pinnedEnv, cpu, runtime.NumCPU()),
		fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	return syscall.Exec(exe, os.Args, env)
}

// pinnedCPU reports the CPU the process was pinned to and the machine's
// CPU count before pinning; ok is false in an unpinned process.
func pinnedCPU() (cpu, nproc int, ok bool) {
	c, n, found := strings.Cut(os.Getenv(pinnedEnv), "/")
	if !found {
		return 0, runtime.NumCPU(), false
	}
	cpu, err1 := strconv.Atoi(c)
	nproc, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil {
		return 0, runtime.NumCPU(), false
	}
	return cpu, nproc, true
}
