// Package libtest is a test-support package: tests alone use it, and that is
// no finding.
package libtest

// Helper is used by a test alone.
func Helper() int { return 5 }
