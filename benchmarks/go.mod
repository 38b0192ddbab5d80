module eris/benchmarks

go 1.23

require eris v0.0.0

replace eris => ../
