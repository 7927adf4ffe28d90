package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runKey identifies one invocation's report within a file of bench output.
type runKey struct {
	workload string
	trace    int
}

// readReports collects the report lines of a file of concatenated bench
// output, one per (workload, trace) pair.
func readReports(path string) (map[runKey]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[runKey]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"report":`) {
			continue
		}
		var line struct {
			Report report `json:"report"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		r := line.Report
		k := runKey{r.Workload, r.Trace}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("%s: two reports for workload %s trace %d; diff compares one run of each", path, k.workload, k.trace)
		}
		out[k] = r
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no bench reports", path)
	}
	return out, nil
}

// diffFiles compares two files of bench output, a the baseline and b the
// candidate. For each workload and end-to-end metric it prints the change
// in median against the metric's bound; a pair is unresolved when either
// side's interquartile range is wider than the bound. Digests and layer
// counts must be identical. It refuses runs from different hosts, and
// exits 1 on a regression or a mismatch.
func diffFiles(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -diff a.json b.json")
		return 2
	}
	a, err := readReports(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readReports(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var host *fingerprint
	for _, rs := range []map[runKey]report{a, b} {
		for _, r := range rs {
			if host == nil {
				h := r.Host
				host = &h
			} else if r.Host != *host {
				fmt.Fprintf(stderr, "bench: refusing to compare runs from different hosts:\n  %s\n  %s\n", *host, r.Host)
				return 2
			}
		}
	}

	keys := make([]runKey, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	bad := 0
	for _, k := range keys {
		ra := a[k]
		rb, ok := b[k]
		if !ok {
			fmt.Fprintf(stdout, "%-10s trace=%d  missing from %s\n", k.workload, k.trace, args[1])
			bad++
			continue
		}
		for _, m := range endToEndMetrics {
			sa, okA := ra.EndToEnd[m.name]
			sb, okB := rb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			change := ratio(sb.Median, sa.Median) - 1
			verdict := "ok"
			switch {
			case sa.spread() > m.bound || sb.spread() > m.bound:
				verdict = fmt.Sprintf("unresolved (IQR %.1f%% / %.1f%% of median)", sa.spread()*100, sb.spread()*100)
			case change > m.bound:
				verdict = "REGRESSION"
				bad++
			}
			fmt.Fprintf(stdout, "%-10s %-12s %12.6g -> %-12.6g %+7.2f%%  bound +%.0f%%  %s\n",
				k.workload, m.name, sa.Median, sb.Median, change*100, m.bound*100, verdict)
		}
		bad += diffExact(stdout, k, "digest", ra.Digests, rb.Digests)
		bad += diffExact(stdout, k, "count", layerCounts(ra), layerCounts(rb))
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regression(s) or mismatch(es)\n", bad)
		return 1
	}
	return 0
}

// layerCounts returns a traced run's count metrics, which repeat exactly.
func layerCounts(r report) map[string]float64 {
	out := map[string]float64{}
	for name, v := range r.Layers {
		if v.Unit == "count" {
			out[name] = v.Value
		}
	}
	return out
}

// diffExact reports entries of two maps that must agree exactly, and
// returns how many do not.
func diffExact[V comparable](w io.Writer, k runKey, what string, a, b map[string]V) int {
	names := map[string]bool{}
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	bad := 0
	for _, n := range sorted {
		va, okA := a[n]
		vb, okB := b[n]
		if okA && okB && va == vb {
			continue
		}
		sa, sb := "-", "-"
		if okA {
			sa = fmt.Sprint(va)
		}
		if okB {
			sb = fmt.Sprint(vb)
		}
		fmt.Fprintf(w, "%-10s trace=%d  %s %s differs: %s -> %s\n", k.workload, k.trace, what, n, sa, sb)
		bad++
	}
	return bad
}
