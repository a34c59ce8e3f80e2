module aacc/bench

go 1.22

require aacc v0.0.0

replace aacc => ../
