// Package profile gives a command the -cpuprofile and -memprofile flags of
// `go test`, so any run of the repository's binaries can be profiled with
// `go tool pprof` without patching its source.
//
//	prof := profile.Register(fs)
//	if err := fs.Parse(args); err != nil { ... }
//	stop, err := prof.Start()
//	if err != nil { return err }
//	defer stop(&err)
package profile

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags are one command's profile destinations; an empty one is off.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile of the run to this file when it ends")
	return f
}

// Start starts the CPU profile, if one was asked for, and returns what ends
// the run's profiling: stop ends the CPU profile and writes the allocation
// profile (every allocation since the process started, and what a GC just
// now left live), joining any error of its own into *err. Call it once,
// deferred from the function that returns the run's error.
func (f *Flags) Start() (stop func(err *error), err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func(err *error) {
		if cpu != nil {
			pprof.StopCPUProfile()
			if cerr := cpu.Close(); cerr != nil {
				*err = errors.Join(*err, fmt.Errorf("-cpuprofile: %w", cerr))
			}
		}
		if f.mem != "" {
			if merr := writeAllocs(f.mem); merr != nil {
				*err = errors.Join(*err, fmt.Errorf("-memprofile: %w", merr))
			}
		}
	}, nil
}

// writeAllocs writes the allocs profile to path, after a GC so its in-use
// figures are current, as `go test -memprofile` does.
func writeAllocs(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.Lookup("allocs").WriteTo(out, 0), out.Close())
}
