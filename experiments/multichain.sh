#!/usr/bin/env bash
# Two-chain pipeline: a tagged complex corpus trains one joint flow over the
# concatenated per-chain latents; sampling emits per-chain records. Rerunning
# reproduces all outputs bitwise.
set -euo pipefail
cd "$(dirname "$0")/.."
# Bitwise reruns need one BLAS thread: with more, OpenBLAS may split a matrix
# product differently, and the loss CSVs differ in their last digits.
export OPENBLAS_NUM_THREADS=1

RUN=runs/multichain
mkdir -p "$RUN"

python3 experiments/make_corpus.py --n 300 --max-len 12 --seed 9 \
    --chains A:12,B:9 --out "$RUN/corpus.fasta"

cat > "$RUN/run.cfg" <<EOF
# desk-scale two-chain run; L_max is ignored in favor of per-chain caps
model.depth = 2
model.width = 64
model.ratio_c = 4
model.L_max = 12
model.D = 32
model.embed_rank = 4
model.decoder_hidden = 64
train.steps = 1500
train.batch = 64
train.lr = 1e-3
train.warmup = 100
train.val_every = 100
train.seed = 9
solver.method = dopri5
solver.steps = 25
chains = A:12,B:9
data.train_path = $RUN/corpus.fasta
EOF

python3 -m protflow train-decoder    --config "$RUN/run.cfg" --out "$RUN/decoder.ckpt"
python3 -m protflow train-compressor --config "$RUN/run.cfg" --init "$RUN/decoder.ckpt" --out "$RUN/pipeline.ckpt"
python3 -m protflow train-flow       --config "$RUN/run.cfg" --init "$RUN/pipeline.ckpt" --out "$RUN/flow.ckpt"

python3 -m protflow sample --checkpoint "$RUN/flow.ckpt" --out "$RUN/gen_pairs.fasta" --n 64 --seed 13

python3 -m protflow eval --gen "$RUN/gen_pairs.fasta" --ref "$RUN/corpus.fasta" --out "$RUN/report"
echo "artifacts in $RUN/"
