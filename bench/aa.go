package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A check: for every workload, two interleaved sets of n
// untraced runs of this same binary (seeds 1..n in both sets), then per
// (metric, workload) both medians and quartiles, each set's spread
// (interquartile range ÷ median, the pipeline's measure), the
// difference of the medians in the direction that counts as worse, and
// the bound. Any difference beyond its bound is an error: on identical
// code it can only be noise, so the benchmark could not gate on that
// metric. Later changes use the same table to tell noise from
// regression.
func runAA(n int, seconds float64, out string, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(workload string, seed int) (result, error) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", out)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return result{}, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.Bytes())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return res, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
		}
		if !res.Correct {
			return res, fmt.Errorf("%s seed %d: run reported incorrect", workload, seed)
		}
		return res, nil
	}

	over := 0
	fmt.Fprintf(w, "%-13s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "spreadA", "spreadB", "worse", "bound")
	for _, wl := range workloadNames() {
		sets := [2]map[string][]float64{{}, {}}
		failed := 0
		for seed := 1; seed <= n; seed++ {
			// Alternate which set runs first, as the pipeline's pairs do.
			for k := 0; k < 2; k++ {
				set := (seed + k) % 2
				res, err := one(wl, seed)
				if err != nil {
					return err
				}
				failed += res.Failed
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		for _, d := range endToEndDecls {
			a, b := sets[0][d.name], sets[1][d.name]
			if len(a) != n || len(b) != n {
				return fmt.Errorf("%s: %s printed in %d and %d of %d runs", wl, d.name, len(a), len(b), n)
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := 0.0, 0.0
			if n >= 2 {
				q1, _, q3 := quartiles(a)
				spreadA = (q3 - q1) / ma
				q1, _, q3 = quartiles(b)
				spreadB = (q3 - q1) / mb
			}
			flag := ""
			if worse > d.bound || -worse > d.bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-13s %-16s %12.5g %12.5g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				wl, d.name, ma, mb, 100*spreadA, 100*spreadB, 100*worse, 100*d.bound, flag)
		}
		fmt.Fprintf(w, "%-13s ops_failed=%d\n", wl, failed)
	}
	if over > 0 {
		return fmt.Errorf("%d (metric, workload) pairs differ between two sets of the same binary by more than their bound", over)
	}
	return nil
}
