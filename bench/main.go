// Command bench is the repo's end-to-end benchmark: four workloads driven
// through the program's real entry points, six end-to-end metrics from
// untraced runs, and per-layer metrics plus a span file from a separate
// traced run. BENCHMARK.json at the repo root is its contract; README.md
// here says what each workload and metric is for and why the numbers
// repeat on a noisy two-vCPU box.
//
//	bash bench/run.sh --workload batch-pruned --seed 20120501 --seconds 10 --trace 0
//	bash bench/run.sh --workload serve-mixed --trace 1        # per-layer metrics + spans
//	bash bench/run.sh -aa 5 > bench/results/aa.json            # same code twice, within bounds?
//	bash bench/run.sh -probe-autotile 8                        # what the unpinned autotuner picks
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/metric"
)

const (
	defaultSeed = 20120501
	// tileBudgetPin is the budget BENCH_baseline.json pins. The autotuner
	// re-measures at every process start and picked 8192–65536 over eight
	// starts, moving the dense scan by 9 % (README, noise rule 1).
	tileBudgetPin = 16384
	buildDir      = ".bench_build"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: batch-pruned, batch-dense, serve-mixed or cluster-tcp")
		seed      = flag.Int64("seed", defaultSeed, "seed for block and query order, probes, op lists and the seeded gate's corpus (the timed corpus is the workload's)")
		seconds   = flag.Int("seconds", 10, "length of the timed phase at the reference round rate; fixes the round count, nothing is time-boxed")
		trace     = flag.String("trace", "0", "0: end-to-end metrics, untraced; 1: per-layer metrics and a span file; any other value: the same, spans written to that path")
		aa        = flag.Int("aa", 0, "run every workload in two interleaved sets of N runs and print the A/A report as JSON")
		autotile  = flag.Int("probe-autotile", 0, "start N unpinned child processes and report the tile budgets the autotuner picks")
		childTile = flag.Int("child-tile", -1, "internal: child of -probe-autotile (0 = report the autotuned budget, >0 = time batch-dense blocks at that budget)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *aa, *autotile, *childTile); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace string, aa, autotile, childTile int) error {
	switch {
	case childTile >= 0:
		return autotileChild(childTile, seed)
	case autotile > 0:
		return probeAutotile(autotile, seed, os.Stdout)
	case aa > 0:
		return runAA(aa, seconds, os.Stdout)
	}
	s, err := specByName(workload)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	pin()
	cfg := runCfg{spec: s, seed: seed, seconds: seconds, setupReps: setupRepsDefault, sz: fullSizes, out: os.Stdout,
		scratch: filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))}
	defer os.RemoveAll(cfg.scratch)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	header(cfg, os.Stdout)

	var res result
	switch trace {
	case "0":
		res, err = runEndToEnd(cfg)
	case "1":
		cfg.traceOut = filepath.Join(buildDir, "trace-"+s.name+".json")
		res, err = runTraced(cfg)
	default:
		cfg.traceOut = trace
		res, err = runTraced(cfg)
	}
	if err != nil {
		return err
	}
	fmt.Println(res.json())
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", s.name, res.Failed, res.Attempted)
	}
	return nil
}

// pin applies noise rules 1 and 2 before anything else runs: a fixed tile
// budget, and one P — on two shared vCPUs the second absorbs the OS, the
// harness and the neighbours (run-to-run spread 8 % at GOMAXPROCS=2,
// ≤ 3.6 % at 1).
func pin() {
	metric.SetTileBudget(tileBudgetPin)
	runtime.GOMAXPROCS(1)
}

// header prints what a reader needs to compare two runs' numbers.
func header(cfg runCfg, out io.Writer) {
	budget, source := metric.TileBudget()
	fmt.Fprintf(out, "bench workload=%s seed=%d seconds=%d rounds=%d commit=%s %s nproc=%d GOMAXPROCS=%d tile_budget=%d(%s) kernels=%s data_dir_fs=%s\n",
		cfg.spec.name, cfg.seed, cfg.seconds, cfg.timedRounds(), commit(), runtime.Version(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), budget, source, kernels(), fsType(cfg.scratch))
}

// commit is the checkout's HEAD, or "unknown" outside a git repository
// (the driver's checkouts are not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// kernels says whether internal/metric's AVX2 bodies can run: they are
// gated on GOARCH and CPUID, neither of which the package exports.
func kernels() string {
	if runtime.GOARCH != "amd64" {
		return "noasm"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil && !strings.Contains(string(b), " avx2") {
		return "noasm(no-avx2)"
	}
	return "asm(avx2)"
}

// fsType names the filesystem fsyncs land on, by statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xef53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x9123683e: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
