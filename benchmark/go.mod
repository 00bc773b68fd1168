module oltpsim/benchmark

go 1.24

require oltpsim v0.0.0

replace oltpsim => ../
