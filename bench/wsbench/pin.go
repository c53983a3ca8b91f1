package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// pinBaseline merges results files (from -o) into the baseline that
// baseline.json holds: the digest each file saw at its seed, and, from
// the files at the first file's seed, every workload's samples pooled
// and the spread of the files' medians. Timing at other seeds is left
// out, since a seed can change how much work a workload does. Smoke
// results are refused, and two files that disagree on a digest for the
// same workload and seed are an error.
func pinBaseline(paths []string) (*baseline, error) {
	b := &baseline{Digests: map[string]map[string]string{}, Spread: map[string]map[string]float64{}}
	pooled := map[string]map[string]*metricResult{}
	medians := map[string]map[string][]float64{}
	attempted := map[string]int{}
	var order []string
	for i, p := range paths {
		r, err := readResults(p)
		if err != nil {
			return nil, err
		}
		if r.Smoke {
			return nil, fmt.Errorf("%s: smoke results cannot be pinned", p)
		}
		if i == 0 {
			b.Host, b.Seed = r.Host, r.Seed
		}
		if r.Seed == b.Seed {
			b.Files++
		}
		for _, wr := range r.Workloads {
			if wr.Failed > 0 || wr.DigestOK == "nondeterministic" || wr.DigestOK == "mismatch" {
				return nil, fmt.Errorf("%s: %s failed %d ops, digest %s: nothing to pin", p, wr.Name, wr.Failed, wr.DigestOK)
			}
			if b.Digests[wr.Name] == nil {
				b.Digests[wr.Name] = map[string]string{}
			}
			seed := strconv.FormatInt(r.Seed, 10)
			if d, ok := b.Digests[wr.Name][seed]; ok && d != wr.Digest {
				return nil, fmt.Errorf("%s: %s digest at seed %s is %s, another file has %s", p, wr.Name, seed, wr.Digest, d)
			}
			b.Digests[wr.Name][seed] = wr.Digest
			if r.Seed != b.Seed {
				continue
			}
			if pooled[wr.Name] == nil {
				order = append(order, wr.Name)
				pooled[wr.Name], medians[wr.Name] = map[string]*metricResult{}, map[string][]float64{}
			}
			attempted[wr.Name] += wr.Attempted
			for name, m := range wr.Metrics {
				if name == "fail_frac" {
					continue
				}
				acc := pooled[wr.Name][name]
				if acc == nil {
					acc = &metricResult{Unit: m.Unit}
					pooled[wr.Name][name] = acc
				}
				acc.Samples = append(acc.Samples, m.Samples...)
				medians[wr.Name][name] = append(medians[wr.Name][name], m.Median)
			}
		}
	}
	for _, name := range order {
		wr := workloadResult{Name: name, Metrics: map[string]metricResult{}, DigestOK: "ok",
			Digest: b.Digests[name][strconv.FormatInt(b.Seed, 10)], Attempted: attempted[name]}
		b.Spread[name] = map[string]float64{}
		for m, acc := range pooled[name] {
			wr.Metrics[m] = metricResult{Unit: acc.Unit, summary: summarize(acc.Samples)}
			b.Spread[name][m] = summarize(medians[name][m]).spread()
		}
		b.Workloads = append(b.Workloads, wr)
	}
	return b, nil
}

func writePin(w io.Writer, paths []string) error {
	b, err := pinBaseline(paths)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
