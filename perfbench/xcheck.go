package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// readBenchNs reads go test -bench output and returns each benchmark's
// median ns/op across its runs, keyed by name without the -GOMAXPROCS
// suffix.
func readBenchNs(r io.Reader) (map[string]float64, error) {
	runs := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		runs[name] = append(runs[name], ns)
	}
	out := make(map[string]float64, len(runs))
	for name, xs := range runs {
		out[name] = median(xs)
	}
	return out, sc.Err()
}

// writeCrossCheck prints, for each probe that mirrors a go test benchmark,
// the ratio of the probe's cost to the benchmark's recorded median.
func writeCrossCheck(w io.Writer, path string, probed map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("xcheck: %w", err)
	}
	defer f.Close()
	base, err := readBenchNs(f)
	if err != nil {
		return fmt.Errorf("xcheck: %s: %w", path, err)
	}
	for _, p := range probes {
		ns, ok := base[p.baseline]
		if p.baseline == "" || !ok {
			continue
		}
		probeNs := probed[p.name] * float64(p.unit) / float64(time.Nanosecond)
		fmt.Fprintf(w, "xcheck %-24s %10.1f ns  %-28s %10.1f ns  ratio %.2f\n",
			p.name, probeNs, p.baseline, ns, probeNs/ns)
	}
	return nil
}
