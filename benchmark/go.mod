module resmod/benchmark

go 1.22

require resmod v0.0.0

replace resmod => ../
