module lscr/benchmark

go 1.24

require lscr v0.0.0

replace lscr => ../
