package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"bpar/internal/obs"
)

// promText is one scrape of an obs.Registry: each sample's value keyed by
// its series exactly as exposed, e.g. `bpar_serve_batches_total` or
// `bpar_serve_stage_seconds_bucket{stage="compute",le="0.05"}`.
type promText map[string]float64

func scrape(reg *obs.Registry) promText {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return promText{}
	}
	p := promText{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// minus returns the change of every series since an earlier scrape q; for
// counters and histograms that is what happened in between.
func (p promText) minus(q promText) promText {
	d := make(promText, len(p))
	for k, v := range p {
		d[k] = v - q[k]
	}
	return d
}

// matching sums the samples of family name whose labels contain sel (a
// comma-separated `k="v"` list, empty for all).
func (p promText) matching(name, sel string) float64 {
	var sum float64
	for k, v := range p {
		if seriesName(k) == name && hasLabels(k, sel) {
			sum += v
		}
	}
	return sum
}

// histMean is a histogram's mean over the series matching sel.
func (p promText) histMean(fam, sel string) float64 {
	n := p.matching(fam+"_count", sel)
	if n == 0 {
		return 0
	}
	return p.matching(fam+"_sum", sel) / n
}

// histQuantile estimates a quantile from the cumulative buckets of the
// series matching sel, merged, by linear interpolation inside the bucket
// holding the rank — the estimate obs.Histogram.Quantile makes. A rank in
// the overflow bucket reads as the largest finite edge.
func (p promText) histQuantile(fam, sel string, q float64) float64 {
	cum := map[float64]float64{}
	for k, v := range p {
		if seriesName(k) != fam+"_bucket" || !hasLabels(k, sel) {
			continue
		}
		le := labelValue(k, "le")
		edge := math.Inf(1)
		if le != "+Inf" {
			e, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			edge = e
		}
		cum[edge] += v
	}
	edges := make([]float64, 0, len(cum))
	for e := range cum {
		edges = append(edges, e)
	}
	sort.Float64s(edges)
	if len(edges) == 0 || cum[edges[len(edges)-1]] == 0 {
		return 0
	}
	rank := q * cum[edges[len(edges)-1]]
	lo, prev := 0.0, 0.0
	for _, e := range edges {
		c := cum[e]
		if c >= rank {
			if math.IsInf(e, 1) {
				return lo
			}
			if c == prev {
				return e
			}
			return lo + (rank-prev)/(c-prev)*(e-lo)
		}
		lo, prev = e, c
	}
	return lo
}

func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// hasLabels reports whether every `k="v"` pair of sel appears among the
// series' labels.
func hasLabels(series, sel string) bool {
	if sel == "" {
		return true
	}
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return false
	}
	labels := "," + strings.TrimSuffix(series[i+1:], "}") + ","
	for _, pair := range strings.Split(sel, ",") {
		if !strings.Contains(labels, ","+pair+",") {
			return false
		}
	}
	return true
}

// labelValue returns the value of one label of a series, "" when absent.
func labelValue(series, key string) string {
	i := strings.Index(series, key+`="`)
	if i < 0 {
		return ""
	}
	rest := series[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
