//go:build !race

package tensor

// raceBuild reports a test binary built with -race (race_on_test.go
// holds the other value).
const raceBuild = false
