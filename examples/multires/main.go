// Multires: the multi-resolution scenario the paper's strict priority
// model motivates (Sec. 2, citing Wang & Ramchandran's multi-resolution
// sensor imaging). A sensor field is sampled on a 32×32 grid and
// decomposed into a resolution pyramid; coarse levels become
// high-priority source blocks. As coded blocks trickle in, the
// reconstruction sharpens level by level — and under heavy loss, what
// survives is a faithful low-resolution picture of the whole field
// rather than a useless shard of the full-resolution one.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

const (
	gridRes    = 32
	payloadLen = 64 // 8 float64 coefficients per source block
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(12))

	field, err := trace.NewField(rng, 8)
	if err != nil {
		return err
	}
	grid, err := field.SampleGrid(gridRes)
	if err != nil {
		return err
	}
	pyramid, err := trace.BuildPyramid(grid, gridRes)
	if err != nil {
		return err
	}
	blocks, layout, err := pyramid.ToBlocks(payloadLen)
	if err != nil {
		return err
	}
	levels, err := core.NewLevels(layout.LevelSizes...)
	if err != nil {
		return err
	}
	fmt.Printf("32x32 field -> %d-level pyramid -> %d source blocks (sizes %v)\n\n",
		pyramid.Levels(), levels.Total(), layout.LevelSizes)

	// Priority distribution: spend coded blocks where the resolution
	// payoff is — slightly favoring the coarse levels.
	dist := core.PriorityDistribution{0.1, 0.1, 0.15, 0.2, 0.2, 0.25}
	enc, err := core.NewEncoder(core.PLC, levels, blocks)
	if err != nil {
		return err
	}
	dec, err := core.NewDecoder(core.PLC, levels, payloadLen)
	if err != nil {
		return err
	}

	fmt.Println("coded-blocks  pyramid-levels  resolution  RMSE")
	printed := -1
	for !dec.Complete() {
		cb, err := enc.EncodeBatch(rng, dist, 1)
		if err != nil {
			return err
		}
		if _, err := dec.Add(cb[0]); err != nil {
			return err
		}
		got := dec.DecodedLevels()
		if got > printed {
			printed = got
			if got == 0 {
				continue
			}
			rebuilt, n, err := trace.FromBlocks(dec.Sources(), layout, gridRes)
			if err != nil {
				return err
			}
			approx, err := rebuilt.Reconstruct(n - 1)
			if err != nil {
				return err
			}
			rmse, err := trace.RMSE(approx, grid)
			if err != nil {
				return err
			}
			res := 1 << uint(n-1)
			fmt.Printf("%12d  %14d  %7dx%-4d %.5f\n", dec.Received(), n, res, res, rmse)
		}
	}

	// Render the coarse vs full reconstruction as ASCII shading.
	rebuilt, n, err := trace.FromBlocks(dec.Sources(), layout, gridRes)
	if err != nil {
		return err
	}
	coarse, err := rebuilt.Reconstruct(2) // 4x4 view
	if err != nil {
		return err
	}
	full, err := rebuilt.Reconstruct(n - 1)
	if err != nil {
		return err
	}
	fmt.Printf("\n4x4 approximation (3 levels)      full 32x32 field (all levels)\n")
	fmt.Println(sideBySide(render(coarse, gridRes, 16), render(full, gridRes, 16)))
	return nil
}

// render shades a grid as ASCII art downsampled to the given width.
func render(grid []float64, res, width int) []string {
	shades := []byte(" .:-=+*#%@")
	min, max := grid[0], grid[0]
	for _, v := range grid {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max == min {
		max = min + 1
	}
	step := res / width
	lines := make([]string, 0, width/2)
	for y := 0; y < res; y += 2 * step { // half vertical resolution: chars are tall
		var b strings.Builder
		for x := 0; x < res; x += step {
			v := grid[y*res+x]
			idx := int((v - min) / (max - min) * float64(len(shades)-1))
			b.WriteByte(shades[idx])
		}
		lines = append(lines, b.String())
	}
	return lines
}

func sideBySide(a, b []string) string {
	var out strings.Builder
	for i := 0; i < len(a) || i < len(b); i++ {
		left, right := "", ""
		if i < len(a) {
			left = a[i]
		}
		if i < len(b) {
			right = b[i]
		}
		fmt.Fprintf(&out, "%-33s %s\n", left, right)
	}
	return out.String()
}
