// The benchmark is a module of its own so that it builds from its own build
// file and stays out of the root module's `go build ./...` / `go test ./...`.
// Its import path keeps the hybridndp/ prefix, which is what lets it import
// hybridndp/internal/...: layers are measured from outside, through the
// functions and reports they already export.
module hybridndp/bench

go 1.22

require hybridndp v0.0.0

replace hybridndp => ../
