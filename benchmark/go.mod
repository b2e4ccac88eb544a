module p2kvs/benchmark

go 1.22

require p2kvs v0.0.0

replace p2kvs => ../
