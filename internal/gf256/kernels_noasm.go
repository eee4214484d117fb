//go:build !amd64 || purego

package gf256

// Non-amd64 (or purego) builds have no SIMD kernels; the word-parallel
// pure-Go kernel in kernels.go handles everything.
var kernels = []kernel{wordKernel}
