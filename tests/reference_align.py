"""The aligner's longest-common-substring length as first written: the
O(|x|·|y|) dynamic program over suffix-match lengths.  ``align._lcs_len``
must return the same integer for every pair of strings."""


def reference_lcs_len(x: str, y: str) -> int:
    # substring (contiguous), not subsequence
    prev = [0] * (len(y) + 1)
    best = 0
    for i in range(1, len(x) + 1):
        cur = [0] * (len(y) + 1)
        for j in range(1, len(y) + 1):
            if x[i - 1] == y[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best
