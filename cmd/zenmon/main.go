// Command zenmon is a turbostat-style monitor for the simulated system: it
// starts a workload scenario and prints per-interval frequency, IPC, power
// and RAPL readings, illustrating the observability stack (perf counters,
// the RAPL model's energy counters, external meter).
//
// Usage: zenmon [-kernel NAME] [-threads N] [-mhz F] [-intervals N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"zen2ee"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0) // -h is a successful help request, not a usage error
		}
		fmt.Fprintln(os.Stderr, "zenmon:", err)
		os.Exit(1)
	}
}

// run is the monitor body, separated from main so the smoke test can drive
// a short session against buffers.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zenmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "busywait", "workload kernel (see -list)")
	threads := fs.Int("threads", 8, "number of hardware threads to load")
	mhz := fs.Int("mhz", 2500, "requested frequency in MHz")
	intervals := fs.Int("intervals", 10, "number of 100 ms monitoring intervals")
	list := fs.Bool("list", false, "list available kernels and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(zen2ee.Kernels(), "\n"))
		return nil
	}

	sys := zen2ee.NewSystem()
	if err := sys.SetAllFrequenciesMHz(*mhz); err != nil {
		return err
	}
	n := *threads
	if n > sys.NumCPUs() {
		n = sys.NumCPUs()
	}
	for cpu := 0; cpu < n; cpu++ {
		if err := sys.Run(cpu, *kernel); err != nil {
			return err
		}
	}
	sys.AdvanceMillis(100)

	fmt.Fprintf(stdout, "monitoring cpu0 under %q on %d threads at %d MHz request\n\n", *kernel, n, *mhz)
	fmt.Fprintf(stdout, "%8s  %10s  %6s  %9s  %10s  %10s  %9s\n",
		"t [s]", "freq [GHz]", "IPC", "AC [W]", "RAPLpkg[W]", "RAPLcore[W]", "mem[GB/s]")
	for i := 0; i < *intervals; i++ {
		st := sys.Stat(0, 50)
		pkg := sys.RAPLPackageWatts(0, 25)
		core := sys.RAPLCoreWatts(0, 25)
		fmt.Fprintf(stdout, "%8.2f  %10.3f  %6.2f  %9.1f  %10.1f  %10.2f  %9.1f\n",
			sys.NowSeconds(), st.GHz, st.IPC, sys.PowerWatts(), pkg, core,
			sys.MemoryTrafficGBs())
	}
	return nil
}
