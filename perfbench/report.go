package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates for latency_tail_ms, highest first; the
// tail is the highest one with at least tailMinBeyond samples beyond it. The
// list stops at p99: on a small shared host, percentiles above it measure
// scheduler quanta and move by a fifth from run to run, wider than any bound
// a regression check could use. p99.9 is still printed beside the metric.
var tailPercentiles = []float64{99, 95, 90, 80, 75, 50}

const tailMinBeyond = 10

func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tail picks the highest candidate percentile with at least tailMinBeyond
// samples beyond it.
func tail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= tailMinBeyond {
			return p
		}
	}
	return 50
}

// reportEndToEnd prints every end-to-end metric with its unit and sample
// count, then the result line.
func (b *bench) reportEndToEnd(out *outcome) error {
	var lat []float64
	failed, degraded := out.failures, 0
	sources := map[string]int{}
	for _, s := range out.samples {
		if s.failed {
			failed++
			continue
		}
		lat = append(lat, s.ms)
		sources[s.source]++
		if s.degraded {
			degraded++
		}
	}
	attempted := len(out.samples)
	completed := attempted - failed
	if completed <= 0 {
		return fmt.Errorf("no request completed (%d attempted)", attempted)
	}
	tailP := tail(len(lat))
	gmean := 0.0
	for _, r := range out.ratios {
		gmean += math.Log(r)
	}
	gmean = math.Exp(gmean / float64(len(out.ratios)))

	m := map[string]metric{
		"setup_s":              {out.setupS, "s"},
		"throughput_rps":       {float64(completed) / out.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":       {percentile(lat, 50), "ms"},
		"latency_tail_ms":      {percentile(lat, tailP), "ms"},
		"success_ratio":        {1 - float64(failed)/float64(attempted), "ratio"},
		"full_fidelity_ratio":  {1 - float64(degraded)/float64(attempted), "ratio"},
		"cpu_ms_per_plan":      {float64(out.cpu) / float64(time.Millisecond) / float64(completed), "ms"},
		"rss_peak_mb":          {out.rssMB, "MB"},
		"plan_objective_gmean": {gmean, "ratio"},
	}
	fmt.Printf("workload %s: %d attempted, %d failed, %d degraded, sources %v\n",
		b.cfg.workload, attempted, failed, degraded, sources)
	fmt.Printf("  setup_s              %10.4f s      median of %d launches\n", out.setupS, setupRepeats)
	fmt.Printf("  throughput_rps       %10.3f 1/s    %d plans in %.2fs\n", m["throughput_rps"].Value, completed, out.elapsed.Seconds())
	fmt.Printf("  latency_p50_ms       %10.3f ms     n=%d\n", m["latency_p50_ms"].Value, len(lat))
	fmt.Printf("  latency_tail_ms      %10.3f ms     p%g, n=%d (p90 %.3f, p99 %.3f, p99.9 %.3f)\n", m["latency_tail_ms"].Value, tailP, len(lat),
		percentile(lat, 90), percentile(lat, 99), percentile(lat, 99.9))
	fmt.Printf("  failed_ratio         %10.4f        %d of %d (success_ratio %.4f)\n", float64(failed)/float64(attempted), failed, attempted, m["success_ratio"].Value)
	fmt.Printf("  degraded_ratio       %10.4f        %d of %d (full_fidelity_ratio %.4f)\n", float64(degraded)/float64(attempted), degraded, attempted, m["full_fidelity_ratio"].Value)
	fmt.Printf("  cpu_ms_per_plan      %10.3f ms     %.2fs daemon CPU over %d plans\n", m["cpu_ms_per_plan"].Value, out.cpu.Seconds(), completed)
	fmt.Printf("  rss_peak_mb          %10.2f MB     VmHWM, largest of %d replicas\n", out.rssMB, len(b.replicas))
	fmt.Printf("  plan_objective_gmean %10.5f        EDP / heuristic-tile EDP, n=%d distinct keys\n", gmean, len(out.ratios))
	return printResult(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m})
}
