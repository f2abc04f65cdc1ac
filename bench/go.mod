module clio/bench

go 1.22

require clio v0.0.0

replace clio => ../
