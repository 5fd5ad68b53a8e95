"""Ray Data stage builders.

udaf.py    — generic mergeable-sketch harness (one Ray task per Dataset
             block or per corpus row range, k-way merge) replacing
             the reference's shared mutable CMS
             (/root/reference/src/partition.jl:148).
             Also the exact-recount tail every CMS select ends in.
motifs.py  — k-combination enumeration / counting / selection+extraction
             (reference passes 1-3, SURVEY.md §2.3).
dedup.py   — exact + MinHash-LSH + SimHash near-duplicate stages.
ann.py     — brute-force / LSH-bucketed cosine top-k.
"""
