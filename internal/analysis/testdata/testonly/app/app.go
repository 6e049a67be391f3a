// Package app reads lib from outside it.
package app

import "lib"

// Main reads lib.Report.Read.
func Main() int { return lib.All() + lib.Run().Read }
