package interp

// Fnv64 and Splitmix64 are the hashes SeedDeterministic draws from, for the
// external tests to spell out the formula it replaced.
var Fnv64, Splitmix64 = fnv64, splitmix64
