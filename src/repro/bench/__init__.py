"""Dataset scale and paper-style reporting for the examples and the
``benchmarks/`` reproduction of the paper's tables and figures."""
