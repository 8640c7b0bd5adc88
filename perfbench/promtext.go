package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: sample name
// (with its label set, verbatim) to value.
type promSample map[string]float64

// parseProm parses the text exposition format ctcpd's /metrics serves.
// Comment lines are skipped; every other non-blank line must be
// "<name>[{labels}] <value>".
func parseProm(text string) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces, so split at the last space.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		name, raw := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("metrics line %d: duplicate sample %q", ln, name)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// delta returns after[name] - before[name]. A counter missing from either
// scrape is an error, not a zero: a renamed metric must fail the check that
// relies on it.
func delta(before, after promSample, name string) (float64, error) {
	a, ok := after[name]
	if !ok {
		return 0, fmt.Errorf("metric %s missing from scrape", name)
	}
	b, ok := before[name]
	if !ok {
		return 0, fmt.Errorf("metric %s missing from baseline scrape", name)
	}
	if a < b {
		return 0, fmt.Errorf("counter %s went backwards (%g -> %g)", name, b, a)
	}
	return a - b, nil
}
