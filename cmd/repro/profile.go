package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a runtime/pprof CPU profile into cpuPath, if set,
// and returns the function that ends the invocation's profiling: it stops
// the CPU profile and writes the allocation profile into memPath, if set.
// Profiles record host time and host memory only, so they change no
// output, artifact or snapshot.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeAllocProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocProfile writes the allocation profile (pprof's "allocs":
// alloc_space by default) of everything the invocation allocated.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // brings the profile's counts up to date
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("-memprofile: %w", err)
	}
	return f.Close()
}
