package gf256

// ForEachKernel lets the external test package run the coding pipeline on
// every kernel tier; the seam stays out of the package's API.
var ForEachKernel = forEachKernel
