package distance

import "repro/internal/obs"

// Distance-kernel instruments. The evals counters make evals/sec a
// first-class observable: scrape skyaccess_distance_kernel_evals_total (or
// the pointer-path twin) twice and divide by the interval. The early-exit
// counter measures how often the flat kernel's structural-equality bound
// skipped a min-matching loop entirely. BenchmarkKernelDistance and
// BenchmarkProfileDistance time the two paths over the same pairs.
var (
	profileEvalsTotal = obs.NewCounter("skyaccess_distance_profile_evals_total",
		"pointer-path ProfileDistance evaluations")
	kernelEvalsTotal = obs.NewCounter("skyaccess_distance_kernel_evals_total",
		"flat SoA kernel distance evaluations")
	kernelEarlyExitTotal = obs.NewCounter("skyaccess_distance_kernel_early_exits_total",
		"kernel evaluations answered by the structural-equality early exit (d_conj = 0, no min-matching)")
)
