module qint/bench

go 1.24

require qint v0.0.0

replace qint => ../
