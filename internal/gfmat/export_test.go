package gfmat

// Test-only exports for the external tests, which decode blocks that core
// encodes and so cannot live in package gfmat.

// Folds returns how many payload folds the decoder has run.
func (d *Decoder) Folds() int { return d.folds }

// AdvanceLengths, AdvancePayloads and RandomSymbols are advanceLengths,
// advancePayloads and randomSymbols.
var (
	AdvanceLengths, AdvancePayloads = advanceLengths, advancePayloads
	RandomSymbols                   = randomSymbols
)
