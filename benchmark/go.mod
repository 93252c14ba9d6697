// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles or runs it; the replace
// directive points it at the checkout it sits in.
module github.com/exploratory-systems/qotp/benchmark

go 1.24

require github.com/exploratory-systems/qotp v0.0.0

replace github.com/exploratory-systems/qotp => ../
