// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never depends on it. The import path
// stays under omicon/, which is what lets it import omicon/internal/...
module omicon/benchmark

go 1.22

require omicon v0.0.0

replace omicon => ../
