// The benchmark is a module of its own so the repository's build and
// tier-1 tests never depend on it. Its import path sits under the parent
// module's, which is what lets it import the parent's internal packages.
module github.com/gwu-systems/gstore/benchmark

go 1.22

require github.com/gwu-systems/gstore v0.0.0

replace github.com/gwu-systems/gstore => ../
