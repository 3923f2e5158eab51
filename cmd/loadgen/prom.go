package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one scrape of /metrics: series text ("name{labels}") to
// value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition; comment and malformed
// lines are skipped.
func parseProm(text []byte) promSample {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// delta returns after minus before, series by series; a series absent
// before counts from zero.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// labelsOf returns the label text of series if it is a series of the
// named metric carrying every given fragment (e.g. `endpoint="/api/task"`).
func labelsOf(series, name string, fragments []string) (string, bool) {
	base, labels, _ := strings.Cut(series, "{")
	if base != name {
		return "", false
	}
	for _, f := range fragments {
		if !strings.Contains(labels, f) {
			return "", false
		}
	}
	return labels, true
}

// sum adds every series of the named metric that carries the fragments.
func (s promSample) sum(name string, fragments ...string) float64 {
	total := 0.0
	for k, v := range s {
		if _, ok := labelsOf(k, name, fragments); ok {
			total += v
		}
	}
	return total
}

// histMean is a histogram's mean observation in seconds (0 when empty).
func (s promSample) histMean(name string, fragments ...string) float64 {
	n := s.sum(name+"_count", fragments...)
	if n == 0 {
		return 0
	}
	return s.sum(name+"_sum", fragments...) / n
}

// histQuantile estimates quantile q (0..1) of a histogram from its
// cumulative buckets, interpolating linearly inside the bucket as
// Prometheus does. It returns seconds, 0 for an empty histogram.
func (s promSample) histQuantile(q float64, name string, fragments ...string) float64 {
	byLE := map[float64]float64{}
	for k, v := range s {
		labels, ok := labelsOf(k, name+"_bucket", fragments)
		if !ok {
			continue
		}
		_, after, found := strings.Cut(labels, `le="`)
		if !found {
			continue
		}
		text, _, _ := strings.Cut(after, `"`)
		le, err := strconv.ParseFloat(text, 64) // accepts "+Inf"
		if err != nil {
			continue
		}
		byLE[le] += v
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || byLE[les[len(les)-1]] == 0 {
		return 0
	}
	rank := q * byLE[les[len(les)-1]]
	prevLE, prevCount := 0.0, 0.0
	for _, le := range les {
		count := byLE[le]
		if count >= rank {
			if math.IsInf(le, 1) || count == prevCount {
				return prevLE
			}
			return prevLE + (le-prevLE)*(rank-prevCount)/(count-prevCount)
		}
		prevLE, prevCount = le, count
	}
	return prevLE
}
