package main

import (
	"fmt"
	"io"
	"reflect"
)

// verdict of one workload × end-to-end metric, side B against side A.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares side B's values of one metric with side A's and returns
// the verdict and the relative change of the median. The medians decide;
// the sides' own spread (inter-quartile distance over median, the larger
// of the two) decides whether the medians can be trusted to the bound:
//
//   - every value of B better than every value of A is "better", whatever
//     the spread;
//   - otherwise a spread above the bound is "unresolved", never "same",
//     unless every value of B is worse than every value of A;
//   - worse by more than the bound is "worse";
//   - better by more than the spread is "better".
func judge(a, b []float64, lowerIsBetter bool, bound float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return same, 0
		}
		return unresolved, 0
	}
	change = (mb - ma) / ma
	// Flip higher-is-better metrics so that smaller is better throughout.
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	worseBy := sign * change
	sa, sb := sortedCopy(a), sortedCopy(b)
	aBest, aWorst, bBest, bWorst := sa[0], sa[len(sa)-1], sb[0], sb[len(sb)-1]
	if !lowerIsBetter {
		aBest, aWorst, bBest, bWorst = aWorst, aBest, bWorst, bBest
	}
	several := len(a) > 1 && len(b) > 1
	spread := max(spreadShare(a), spreadShare(b))
	switch {
	case several && sign*bWorst < sign*aBest:
		return better, change
	case spread > bound && !(several && sign*bBest > sign*aWorst):
		return unresolved, change
	case worseBy > bound:
		return worse, change
	case worseBy < 0 && -worseBy > spread:
		return better, change
	}
	return same, change
}

func readReports(paths []string) ([]*report, error) {
	var out []*report
	for _, p := range paths {
		r, err := readReport(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// compareReports prints the verdict table for report set B against set A
// and returns the exit code: non-zero on any "worse" or when B failed
// more operations than A.
func compareReports(w io.Writer, sp *spec, pathsA, pathsB []string) int {
	as, err := readReports(pathsA)
	if err != nil {
		fmt.Fprintln(w, "loadgen:", err)
		return 2
	}
	bs, err := readReports(pathsB)
	if err != nil {
		fmt.Fprintln(w, "loadgen:", err)
		return 2
	}
	return compareSets(w, sp, as, bs)
}

func compareSets(w io.Writer, sp *spec, as, bs []*report) int {
	names := map[string]bool{}
	for _, r := range append(append([]*report(nil), as...), bs...) {
		warnFingerprint(w, as[0].Env, r.Env)
		for _, res := range r.Runs {
			names[res.Workload] = true
		}
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range sortedKeys(names) {
		// values collects one number per report from the workload's
		// untraced run.
		values := func(rs []*report, get func(*result) (float64, bool)) []float64 {
			var vs []float64
			for _, r := range rs {
				if res := r.run(wl, false); res != nil {
					if v, ok := get(res); ok {
						vs = append(vs, v)
					}
				}
			}
			return vs
		}
		for _, m := range sp.EndToEnd {
			get := func(res *result) (float64, bool) { v, ok := res.Metrics[m.Name]; return v.Value, ok }
			a, b := values(as, get), values(bs, get)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, change := judge(a, b, m.Better == "lower", m.Bound)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wl, m.Name, median(a), median(b), 100*change, 100*m.Bound, v)
		}
		failed := func(res *result) (float64, bool) { return float64(res.Failed), true }
		if fa, fb := values(as, failed), values(bs, failed); len(fa) > 0 && len(fb) > 0 {
			v := same
			if median(fb) > median(fa) {
				v, code = worse, 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %9s %7s  %s\n", wl, "failed", median(fa), median(fb), "", "0%", v)
		}
		if da, db := digests(as, wl), digests(bs, wl); !reflect.DeepEqual(da, db) {
			fmt.Fprintf(w, "%-14s outputs differ: digests %v against %v\n", wl, da, db)
		}
	}
	return code
}

// digests lists the distinct output digests of a workload's untraced runs.
func digests(rs []*report, workload string) []string {
	seen := map[string]bool{}
	for _, r := range rs {
		if res := r.run(workload, false); res != nil {
			seen[res.Digest] = true
		}
	}
	return sortedKeys(seen)
}

// warnFingerprint prints every field but the commit in which two
// environments differ.
func warnFingerprint(w io.Writer, a, b fingerprint) {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if name == "Commit" {
			continue
		}
		if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); x != y {
			fmt.Fprintf(w, "warning: environments differ in %s: %v against %v\n", name, x, y)
		}
	}
}
