// Package cliutil is the file codec and flag helpers the command-line
// tools share: one encoder, one decoder and one Geometry describing the
// code between them (prlcfile, prlcd), and one parser per list flag.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseFloats parses a comma-separated list of finite floats
// ("0.1,0.2,0.7"); NaN and ±Inf are rejected.
func ParseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%q is not a finite number", strings.TrimSpace(p))
		}
		out = append(out, v)
	}
	return out, nil
}

// Finite rejects a NaN or infinite value of the named flag.
func Finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s: %g is not a finite number", name, v)
	}
	return nil
}

// ParseInts parses a comma-separated int list ("4,12").
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// SplitAddrs parses a comma-separated address list, dropping empties.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// FractionsToSizes turns positive level fractions into per-level block
// counts summing to blocks, rounding drift onto the last (least
// important) level and guaranteeing every level at least one block.
func FractionsToSizes(fracs []float64, blocks int) ([]int, error) {
	if len(fracs) == 0 {
		return nil, fmt.Errorf("no level fractions")
	}
	sum := 0.0
	for _, f := range fracs {
		if !(f > 0) || math.IsInf(f, 1) {
			return nil, fmt.Errorf("level fraction %g, want finite and > 0", f)
		}
		sum += f
	}
	if math.IsInf(sum, 1) {
		return nil, fmt.Errorf("level fractions sum to %g, want finite", sum)
	}
	sizes := make([]int, len(fracs))
	used := 0
	for i, f := range fracs {
		sizes[i] = int(f / sum * float64(blocks))
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		used += sizes[i]
	}
	sizes[len(sizes)-1] += blocks - used
	if sizes[len(sizes)-1] < 1 {
		return nil, fmt.Errorf("too many levels (%d) for %d blocks", len(fracs), blocks)
	}
	return sizes, nil
}

// SplitPayloads slices data into `blocks` equal zero-padded payloads.
func SplitPayloads(data []byte, blocks int) [][]byte {
	payloadLen := (len(data) + blocks - 1) / blocks
	out := make([][]byte, blocks)
	for i := range out {
		out[i] = make([]byte, payloadLen)
		lo := i * payloadLen
		if lo < len(data) {
			hi := lo + payloadLen
			if hi > len(data) {
				hi = len(data)
			}
			copy(out[i], data[lo:hi])
		}
	}
	return out
}
