module gisnav/benchmark

go 1.24

require gisnav v0.0.0

replace gisnav => ../
