module github.com/skipwebs/skipwebs/benchmark

go 1.21

require github.com/skipwebs/skipwebs v0.0.0

replace github.com/skipwebs/skipwebs => ../
