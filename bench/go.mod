module xenic/bench

go 1.24

require xenic v0.0.0

replace xenic => ../
